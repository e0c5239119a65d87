//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a fleet [`Topology`], a [`NetConfig`] network model, one
//! [`Actor`] per node, and a time-ordered event queue. Actors communicate
//! exclusively by message passing through [`Ctx::send`]; the engine charges
//! propagation delay, per-node egress/ingress serialization, and jitter, so
//! fan-out bottlenecks emerge mechanically rather than by assumption.
//!
//! Runs are deterministic: the queue breaks ties by insertion sequence and
//! all randomness flows from the seed passed to [`Sim::new`].

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

use crate::intern::{FxHashMap, FxHashSet, Sym};
use crate::net::{LinkFaults, NetConfig};
use crate::ods::Ods;
use crate::profile::{EventClass, Profiler};
use crate::queue::{EventKey, EventQueue, Slab};
use crate::stats::{names, Metrics};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Proximity, RegionId, Topology};
use crate::trace::{TraceCtx, Tracer};

/// An opaque message payload exchanged between actors.
///
/// Protocol crates define their own message enums and downcast on receipt.
pub type Message = Box<dyn Any>;

/// A simulated process running on one node.
///
/// All methods receive a [`Ctx`] giving access to the clock, the RNG, metric
/// recording, and message/timer scheduling. Handlers run to completion at a
/// single instant of simulated time.
pub trait Actor: Any {
    /// Called once when the simulation starts (or when the actor is added to
    /// an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// Called when the node recovers from a crash.
    fn on_recover(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A stable label for the subsystem this actor belongs to (e.g.
    /// `"zeus.observer"`), used by the self-profiler to aggregate dispatch
    /// counts and wall time per tier. The default groups unlabeled actors
    /// under `"actor"`.
    fn kind(&self) -> &'static str {
        "actor"
    }
}

enum EventKind {
    /// First byte of a network message reaches the receiver's NIC. The
    /// ingress link is claimed *here*, in arrival order — claiming it at
    /// send time would let a message still in flight across a slow link
    /// head-of-line-block later sends that arrive sooner.
    Arrive {
        to: NodeId,
        from: NodeId,
        size: u64,
        msg: Message,
        traces: Vec<TraceCtx>,
    },
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Message,
        /// Trace contexts riding on the delivery envelope (in addition to
        /// whatever the protocol payload itself carries), so the engine can
        /// annotate drops and retransmits onto the originating traces. A
        /// batched frame carries one context per batched write: if the
        /// frame is dropped, *every* write's waterfall shows the drop, not
        /// just the first one's. Empty for untraced messages.
        traces: Vec<TraceCtx>,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    Start {
        node: NodeId,
    },
    Control(Box<dyn FnOnce(&mut Sim)>),
}

/// When set, every subsequently created [`Sim`] starts on the reference
/// binary-heap queue instead of the calendar queue. Used by determinism
/// tests to prove both queues produce identical schedules; safe to flip
/// globally because the two orderings are identical by construction.
static REFERENCE_QUEUE_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Selects which event queue newly created simulators use: the reference
/// seed `BinaryHeap` (`true`) or the production calendar queue (`false`,
/// the default). Exists for byte-determinism tests.
pub fn set_default_reference_queue(on: bool) {
    REFERENCE_QUEUE_DEFAULT.store(on, AtomicOrdering::SeqCst);
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use simnet::prelude::*;
///
/// struct Echo;
/// impl Actor for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
///         let text = *msg.downcast::<&'static str>().unwrap();
///         ctx.metrics().incr("echoed", 1);
///         if text == "ping" {
///             ctx.send_value(from, 8, "pong");
///         }
///     }
/// }
///
/// let topo = Topology::symmetric(1, 1, 2);
/// let mut sim = Sim::new(topo, NetConfig::default(), 42);
/// sim.add_actor(NodeId(0), Box::new(Echo));
/// sim.add_actor(NodeId(1), Box::new(Echo));
/// sim.post(SimTime::ZERO, NodeId(0), NodeId(1), Box::new("ping"));
/// sim.run_until_idle();
/// assert_eq!(sim.metrics().counter("echoed"), 2);
/// ```
pub struct Sim {
    topo: Topology,
    net: NetConfig,
    now: SimTime,
    seq: u64,
    /// Pending event keys, ordered by `(at, seq)`; payloads live in
    /// `events` and the queue only moves copyable keys around.
    queue: EventQueue,
    /// Slab of pending event payloads, indexed by [`EventKey::idx`].
    events: Slab<EventKind>,
    actors: Vec<Option<Box<dyn Actor>>>,
    up: Vec<bool>,
    egress_free: Vec<SimTime>,
    ingress_free: Vec<SimTime>,
    /// Last scheduled first-byte arrival per directed link. Arrivals on one
    /// link are clamped to this so a message never overtakes an earlier one
    /// on the same (from, to) stream (TCP-like per-link FIFO), even when
    /// jitter or injected delay would let it. Entries whose clamp time has
    /// passed are dead weight (a future arrival's first byte is always
    /// `>= now`) and are pruned periodically in [`Sim::step`].
    link_order: FxHashMap<(u32, u32), SimTime>,
    partitions: FxHashSet<(u16, u16)>,
    /// Directed region cuts: `(from, to)` means traffic from `from` to `to`
    /// is dropped while the reverse direction still flows.
    partitions_oneway: FxHashSet<(u16, u16)>,
    /// Per-node stall horizon: while `now < stalled_until[n]`, local
    /// processing on `n` (deliveries, timers, starts) is deferred to the
    /// horizon instead of running — a GC pause or disk stall, where work
    /// queues up rather than being lost.
    stalled_until: Vec<SimTime>,
    /// Per-node clock offset in signed microseconds: what the node's local
    /// clock reads relative to true simulation time.
    clock_skew: Vec<i64>,
    link_faults: LinkFaults,
    rng: SmallRng,
    metrics: Metrics,
    tracer: Tracer,
    /// Trace contexts of the delivery currently being handled, readable by
    /// the receiving actor via [`Ctx::incoming_trace`].
    delivering_traces: Vec<TraceCtx>,
    events_processed: u64,
    profiler: Profiler,
    ods: Ods,
    /// Pre-interned symbols for the two counters bumped on every message
    /// accepted by the network model, so `transmit` skips the name hash.
    sym_messages_sent: Sym,
    sym_bytes_sent: Sym,
}

impl Sim {
    /// Creates a simulator over `topo` with the given network model and RNG
    /// seed. Every node starts up with no actor installed.
    pub fn new(topo: Topology, net: NetConfig, seed: u64) -> Sim {
        let n = topo.num_nodes();
        let mut metrics = Metrics::new();
        let sym_messages_sent = metrics.counter_sym(names::MESSAGES_SENT);
        let sym_bytes_sent = metrics.counter_sym(names::BYTES_SENT);
        Sim {
            topo,
            net,
            now: SimTime::ZERO,
            seq: 0,
            queue: if REFERENCE_QUEUE_DEFAULT.load(AtomicOrdering::SeqCst) {
                EventQueue::reference()
            } else {
                EventQueue::calendar()
            },
            events: Slab::new(),
            actors: (0..n).map(|_| None).collect(),
            up: vec![true; n],
            egress_free: vec![SimTime::ZERO; n],
            ingress_free: vec![SimTime::ZERO; n],
            link_order: FxHashMap::default(),
            partitions: FxHashSet::default(),
            partitions_oneway: FxHashSet::default(),
            stalled_until: vec![SimTime::ZERO; n],
            clock_skew: vec![0; n],
            link_faults: LinkFaults::default(),
            rng: SmallRng::seed_from_u64(seed),
            metrics,
            tracer: Tracer::new(),
            delivering_traces: Vec::new(),
            events_processed: 0,
            profiler: Profiler::new(n),
            sym_messages_sent,
            sym_bytes_sent,
            ods: Ods::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The fleet topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to collected metrics (for experiment drivers).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Collected trace records.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer (for experiment drivers starting
    /// traces from outside the actor plane).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Turns on the self-profiler. Until called, every profiling hook is a
    /// single branch (no clock reads), so unprofiled runs — and their
    /// goldens — are unaffected.
    pub fn enable_profiler(&mut self) {
        self.profiler.enable();
    }

    /// The self-profiler's accumulated accounting.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Turns on the ODS aggregation plane with the given burn-rate windows.
    pub fn enable_ods(&mut self, fast: SimDuration, slow: SimDuration) {
        self.ods.enable(fast, slow);
    }

    /// The ODS aggregation plane.
    pub fn ods(&self) -> &Ods {
        &self.ods
    }

    /// Mutable access to the ODS plane (register SLOs, force scrapes).
    pub fn ods_mut(&mut self) -> &mut Ods {
        &mut self.ods
    }

    /// Installs `actor` on `node`, replacing any existing actor. The actor's
    /// [`Actor::on_start`] runs at the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the topology.
    pub fn add_actor(&mut self, node: NodeId, actor: Box<dyn Actor>) {
        assert!((node.0 as usize) < self.actors.len(), "node out of range");
        self.actors[node.0 as usize] = Some(actor);
        self.push(self.now, EventKind::Start { node });
    }

    /// Returns a shared reference to the actor on `node`, downcast to `T`.
    /// Returns `None` if there is no actor or the type does not match.
    pub fn actor<T: Actor + 'static>(&self, node: NodeId) -> Option<&T> {
        self.actors[node.0 as usize]
            .as_ref()
            .and_then(|a| (a.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Returns a mutable reference to the actor on `node`, downcast to `T`.
    pub fn actor_mut<T: Actor + 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.actors[node.0 as usize]
            .as_mut()
            .and_then(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    /// Schedules delivery of `msg` to `to` at time `at` (clamped to the
    /// present), bypassing the network model. `from` is reported as the
    /// sender. Useful for experiment drivers injecting external stimuli.
    pub fn post(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: Message) {
        self.post_traced(at, from, to, msg, None);
    }

    /// Like [`Sim::post`], with a trace context on the delivery envelope.
    pub fn post_traced(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: Message,
        trace: Option<TraceCtx>,
    ) {
        let at = at.max(self.now);
        self.push(
            at,
            EventKind::Deliver {
                to,
                from,
                msg,
                traces: trace.into_iter().collect(),
            },
        );
    }

    /// Schedules `f` to run against the simulator at time `at` (clamped to
    /// the present). Control functions may crash nodes, inject partitions,
    /// post messages, or record metrics.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        let at = at.max(self.now);
        self.push(at, EventKind::Control(Box::new(f)));
    }

    /// Crashes `node`: pending and future deliveries and timers are dropped
    /// until it recovers.
    pub fn crash(&mut self, node: NodeId) {
        self.up[node.0 as usize] = false;
    }

    /// Recovers `node` and invokes its actor's [`Actor::on_recover`].
    pub fn recover(&mut self, node: NodeId) {
        if !self.up[node.0 as usize] {
            self.up[node.0 as usize] = true;
            if let Some(mut actor) = self.actors[node.0 as usize].take() {
                let start = self.profiler.enabled().then(crate::profile::now_ticks);
                let mut ctx = Ctx { sim: self, node };
                actor.on_recover(&mut ctx);
                if let Some(start) = start {
                    let ticks = crate::profile::now_ticks().saturating_sub(start);
                    self.profiler
                        .record_dispatch(node, actor.kind(), EventClass::Recover, ticks);
                }
                self.actors[node.0 as usize] = Some(actor);
            }
        }
    }

    /// Returns whether `node` is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up[node.0 as usize]
    }

    /// Stalls `node` until `until`: deliveries, timers, and starts targeting
    /// it are deferred to `until` instead of running — modeling a GC pause
    /// or a disk stall. Unlike [`Sim::crash`], nothing is dropped; the
    /// backlog drains (in its original order) when the window ends. Extends
    /// any stall already in effect; a `until` in the past is a no-op.
    pub fn stall(&mut self, node: NodeId, until: SimTime) {
        let slot = &mut self.stalled_until[node.0 as usize];
        *slot = (*slot).max(until);
    }

    /// Returns whether `node` is currently inside a stall window.
    pub fn is_stalled(&self, node: NodeId) -> bool {
        self.stalled_until[node.0 as usize] > self.now
    }

    /// Skews `node`'s local clock by `offset_us` microseconds: its
    /// [`Ctx::now`] reads true time plus the offset (clamped at zero).
    /// Skew corrupts cross-node latency accounting — an origin stamped by a
    /// fast clock looks slower everywhere else — without perturbing event
    /// scheduling, which runs on true time.
    pub fn set_clock_skew(&mut self, node: NodeId, offset_us: i64) {
        self.clock_skew[node.0 as usize] = offset_us;
    }

    /// Removes any clock skew on `node`.
    pub fn clear_clock_skew(&mut self, node: NodeId) {
        self.clock_skew[node.0 as usize] = 0;
    }

    /// The local clock reading on `node`: true time plus its skew,
    /// saturating at the epoch.
    pub fn local_now(&self, node: NodeId) -> SimTime {
        let off = self.clock_skew[node.0 as usize];
        SimTime((self.now.0 as i64).saturating_add(off).max(0) as u64)
    }

    /// Partitions two regions: messages between them are dropped until
    /// [`Sim::heal`] is called.
    pub fn partition(&mut self, a: RegionId, b: RegionId) {
        self.partitions.insert(normalize(a, b));
    }

    /// Heals a partition created by [`Sim::partition`].
    pub fn heal(&mut self, a: RegionId, b: RegionId) {
        self.partitions.remove(&normalize(a, b));
    }

    /// Partitions two regions asymmetrically: messages from `from` to `to`
    /// are dropped while the reverse direction still flows. The one-way
    /// failure is what makes real networks interesting — acks vanish while
    /// requests arrive, so one side believes the link is healthy.
    pub fn partition_oneway(&mut self, from: RegionId, to: RegionId) {
        self.partitions_oneway.insert((from.0, to.0));
    }

    /// Heals a cut created by [`Sim::partition_oneway`].
    pub fn heal_oneway(&mut self, from: RegionId, to: RegionId) {
        self.partitions_oneway.remove(&(from.0, to.0));
    }

    /// Returns whether any region pair is currently partitioned (in either
    /// or only one direction).
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty() || !self.partitions_oneway.is_empty()
    }

    /// Installs message-level fault injection on all non-local links,
    /// replacing the previous parameters. Pass `LinkFaults::default()` (or
    /// call [`Sim::clear_link_faults`]) to stop injecting.
    pub fn set_link_faults(&mut self, faults: LinkFaults) {
        self.link_faults = faults;
    }

    /// Removes all message-level fault injection.
    pub fn clear_link_faults(&mut self) {
        self.link_faults = LinkFaults::default();
    }

    /// The currently installed link fault parameters.
    pub fn link_faults(&self) -> &LinkFaults {
        &self.link_faults
    }

    /// Runs a single event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(key) = self.queue.pop() else {
            return false;
        };
        let kind = self.events.remove(key.idx);
        debug_assert!(key.at_us >= self.now.0, "time went backwards");
        self.now = SimTime(key.at_us);
        self.events_processed += 1;
        if self.profiler.enabled() {
            self.profiler.observe_queue_step(self.queue.len());
        }
        // Opportunistic upkeep: drop per-link FIFO clamps that can no
        // longer affect anything (a future arrival's first byte is always
        // `>= now`). Amortized over 64Ki events so the common step stays
        // branch-cheap; keyed to virtual progress, so it is deterministic.
        if self.events_processed & 0xFFFF == 0 && !self.link_order.is_empty() {
            let now = self.now;
            self.link_order.retain(|_, t| *t > now);
        }
        // A stalled node defers local processing: the event is parked at
        // the stall horizon, not dropped. Re-pushing in pop order assigns
        // increasing sequence numbers, so the backlog replays in its
        // original order. Network arrivals (`Arrive`) are exempt — the NIC
        // still accepts bytes while the process is paused.
        let stall_target = match &kind {
            EventKind::Deliver { to, .. } => Some(*to),
            EventKind::Timer { node, .. } | EventKind::Start { node } => Some(*node),
            _ => None,
        };
        if let Some(node) = stall_target {
            let until = self.stalled_until[node.0 as usize];
            if until > self.now {
                self.metrics.incr(names::STALL_DEFERRED, 1);
                self.push(until, kind);
                return true;
            }
        }
        match kind {
            EventKind::Arrive {
                to,
                from,
                size,
                msg,
                traces,
            } => {
                if self.profiler.enabled() {
                    self.profiler.record_bytes_in(to, size);
                }
                // Serialize the receiver's ingress link in arrival order.
                let rx_start = self.now.max(self.ingress_free[to.0 as usize]);
                let rx_done = rx_start + self.net.ingress_transmit(size);
                self.ingress_free[to.0 as usize] = rx_done;
                self.push(
                    rx_done + self.net.per_message_overhead,
                    EventKind::Deliver {
                        to,
                        from,
                        msg,
                        traces,
                    },
                );
            }
            EventKind::Deliver {
                to,
                from,
                msg,
                traces,
            } => {
                if !self.up[to.0 as usize] {
                    self.metrics.incr(names::DROPPED_TO_DOWN_NODE, 1);
                    let at = self.now;
                    for t in traces {
                        self.tracer.annot(
                            t,
                            "net.drop",
                            Some(to),
                            at,
                            vec![("reason", "node_down".into())],
                        );
                    }
                    return true;
                }
                self.delivering_traces = traces;
                self.with_actor(to, EventClass::Deliver, |actor, ctx| {
                    actor.on_message(ctx, from, msg)
                });
                self.delivering_traces.clear();
            }
            EventKind::Timer { node, tag } => {
                if self.up[node.0 as usize] {
                    self.with_actor(node, EventClass::Timer, |actor, ctx| {
                        actor.on_timer(ctx, tag)
                    });
                }
            }
            EventKind::Start { node } => {
                if self.up[node.0 as usize] {
                    self.with_actor(node, EventClass::Start, |actor, ctx| actor.on_start(ctx));
                }
            }
            EventKind::Control(f) => {
                if self.profiler.enabled() {
                    let start = crate::profile::now_ticks();
                    f(self);
                    let ticks = crate::profile::now_ticks().saturating_sub(start);
                    self.profiler.record_control(ticks);
                } else {
                    f(self);
                }
            }
        }
        true
    }

    /// Runs events until the queue is empty or `limit` events have been
    /// processed. Returns the number of events processed.
    pub fn run_until_idle_limited(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Runs events until the queue is empty.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs events with timestamps up to and including `deadline`; the clock
    /// is advanced to `deadline` afterwards even if the queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(key) = self.queue.peek_min() {
            if key.at_us > deadline.0 {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    fn with_actor(
        &mut self,
        node: NodeId,
        class: EventClass,
        f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    ) {
        if let Some(mut actor) = self.actors[node.0 as usize].take() {
            let start = self.profiler.enabled().then(crate::profile::now_ticks);
            let mut ctx = Ctx { sim: self, node };
            f(actor.as_mut(), &mut ctx);
            if let Some(start) = start {
                let ticks = crate::profile::now_ticks().saturating_sub(start);
                self.profiler
                    .record_dispatch(node, actor.kind(), class, ticks);
            }
            // A handler may have installed a replacement actor; keep it.
            if self.actors[node.0 as usize].is_none() {
                self.actors[node.0 as usize] = Some(actor);
            }
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        let idx = self.events.insert(kind);
        self.queue.push(EventKey {
            at_us: at.0,
            seq,
            idx,
        });
        if self.profiler.enabled() {
            self.profiler.observe_queue_push(self.queue.len());
        }
    }

    /// Switches this simulator onto the reference binary-heap queue,
    /// carrying over any pending events. Ordering is unchanged — the
    /// reference queue exists so tests can prove exactly that.
    pub fn use_reference_queue(&mut self) {
        let mut reference = EventQueue::reference();
        while let Some(key) = self.queue.pop() {
            reference.push(key);
        }
        self.queue = reference;
    }

    /// Number of live per-link FIFO clamp entries (see `link_order`).
    /// Exposed so tests can assert the map stays bounded on long runs.
    pub fn link_order_entries(&self) -> usize {
        self.link_order.len()
    }

    /// Computes the delivery time of a `size`-byte message from `from` to
    /// `to` sent now, updating link occupancy, and enqueues the delivery.
    /// Messages across a partitioned region pair are dropped at send time.
    fn transmit(&mut self, from: NodeId, to: NodeId, size: u64, msg: Message) {
        self.transmit_traced(from, to, size, msg, Vec::new());
    }

    /// [`Sim::transmit`] with trace contexts riding the envelope (one per
    /// batched write). Drops caused by partitions or injected faults are
    /// annotated onto every carried trace, so a waterfall shows *why* a hop
    /// is missing or late even when its write shared a frame with others.
    fn transmit_traced(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: u64,
        msg: Message,
        traces: Vec<TraceCtx>,
    ) {
        let prox = self.topo.proximity(from, to);
        if prox == Proximity::CrossRegion {
            let ra = self.topo.placement(from).region;
            let rb = self.topo.placement(to).region;
            if self.partitions.contains(&normalize(ra, rb)) {
                self.metrics.incr(names::DROPPED_PARTITIONED, 1);
                let at = self.now;
                for t in traces {
                    self.tracer.annot(
                        t,
                        "net.drop",
                        Some(from),
                        at,
                        vec![("reason", "partitioned".into())],
                    );
                }
                return;
            }
            if self.partitions_oneway.contains(&(ra.0, rb.0)) {
                self.metrics.incr(names::DROPPED_PARTITIONED, 1);
                let at = self.now;
                for t in traces {
                    self.tracer.annot(
                        t,
                        "net.drop",
                        Some(from),
                        at,
                        vec![("reason", "partitioned_oneway".into())],
                    );
                }
                return;
            }
        }
        if prox == Proximity::SameNode {
            self.metrics.incr_sym(self.sym_messages_sent, 1);
            self.metrics.incr_sym(self.sym_bytes_sent, size);
            if self.profiler.enabled() {
                self.profiler.record_bytes_out(from, size);
                self.profiler.record_bytes_in(to, size);
            }
            self.push(
                self.now + self.net.per_message_overhead,
                EventKind::Deliver {
                    to,
                    from,
                    msg,
                    traces,
                },
            );
        } else {
            // The chaos fault plane acts on every link that crosses the
            // network; loopback traffic is exempt so a node can always talk
            // to itself.
            if self.link_faults.drop_prob > 0.0 && self.rng.gen_bool(self.link_faults.drop_prob) {
                self.metrics.incr(names::DROPPED_CHAOS, 1);
                let at = self.now;
                for t in traces {
                    self.tracer.annot(
                        t,
                        "net.drop",
                        Some(from),
                        at,
                        vec![("reason", "chaos".into())],
                    );
                }
                return;
            }
            let chaos_delay = if self.link_faults.delay_prob > 0.0
                && self.link_faults.max_extra_delay > SimDuration::ZERO
                && self.rng.gen_bool(self.link_faults.delay_prob)
            {
                self.metrics.incr(names::DELAYED_CHAOS, 1);
                SimDuration::from_micros(
                    self.rng
                        .gen_range(0..=self.link_faults.max_extra_delay.as_micros()),
                )
            } else {
                SimDuration::ZERO
            };
            let start = self.now.max(self.egress_free[from.0 as usize]);
            let egress_done = start + self.net.egress_transmit(size);
            self.egress_free[from.0 as usize] = egress_done;
            let jitter = if self.net.max_jitter.as_micros() == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(self.rng.gen_range(0..=self.net.max_jitter.as_micros()))
            };
            let mut first_byte = start + self.net.propagation(prox) + jitter + chaos_delay;
            let fifo = self
                .link_order
                .entry((from.0, to.0))
                .or_insert(SimTime::ZERO);
            first_byte = first_byte.max(*fifo);
            *fifo = first_byte;
            self.metrics.incr_sym(self.sym_messages_sent, 1);
            self.metrics.incr_sym(self.sym_bytes_sent, size);
            if self.profiler.enabled() {
                self.profiler.record_bytes_out(from, size);
            }
            // Ingress serialization is applied when the first byte arrives
            // (see `EventKind::Arrive`), not here: link occupancy at the
            // receiver must follow arrival order, not send order.
            self.push(
                first_byte,
                EventKind::Arrive {
                    to,
                    from,
                    size,
                    msg,
                    traces,
                },
            );
        }
    }
}

fn normalize(a: RegionId, b: RegionId) -> (u16, u16) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Handler-side view of the simulator: clock, RNG, metrics, and scheduling.
pub struct Ctx<'a> {
    sim: &'a mut Sim,
    node: NodeId,
}

impl Ctx<'_> {
    /// The node's local clock reading. Equal to true simulated time unless
    /// the node has been given a skew via [`Sim::set_clock_skew`], in which
    /// case timestamps this actor originates (and latency computed against
    /// foreign stamps) are off by that skew — exactly the failure class a
    /// drifting NTP client inflicts in production.
    pub fn now(&self) -> SimTime {
        self.sim.local_now(self.node)
    }

    /// The node this actor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fleet topology.
    pub fn topology(&self) -> &Topology {
        &self.sim.topo
    }

    /// Sends a `size`-byte message to `to` through the network model.
    pub fn send(&mut self, to: NodeId, size: u64, msg: Message) {
        let from = self.node;
        self.sim.transmit(from, to, size, msg);
    }

    /// Sends with a trace context riding the delivery envelope: engine-level
    /// drops (partition, chaos, down node) are annotated onto the trace.
    pub fn send_traced(&mut self, to: NodeId, size: u64, msg: Message, trace: Option<TraceCtx>) {
        let from = self.node;
        self.sim
            .transmit_traced(from, to, size, msg, trace.into_iter().collect());
    }

    /// Sends one frame carrying several traced writes: every context in
    /// `traces` rides the envelope, so an engine-level drop of the frame is
    /// annotated onto each write's trace (a batch is all-or-nothing on the
    /// wire — either every write arrives or none does).
    pub fn send_traced_batch(
        &mut self,
        to: NodeId,
        size: u64,
        msg: Message,
        traces: Vec<TraceCtx>,
    ) {
        let from = self.node;
        self.sim.transmit_traced(from, to, size, msg, traces);
    }

    /// Convenience wrapper boxing `value` as the message payload.
    pub fn send_value<T: Any>(&mut self, to: NodeId, size: u64, value: T) {
        self.send(to, size, Box::new(value));
    }

    /// Sends one logical frame to every receiver in `tos` without cloning
    /// the payload: `value` is wrapped in an [`Arc`] once, and each
    /// receiver's delivery envelope carries a refcount clone of it.
    /// Receivers downcast the delivered message to `Arc<T>`.
    ///
    /// The *network* is still charged honestly per receiver — each send
    /// pays its own egress serialization at the sender, ingress occupancy
    /// at the receiver, propagation, and jitter, and each is individually
    /// subject to partitions and chaos faults (with `traces` annotated per
    /// receiver on a drop). What the sharing removes is the *simulator*
    /// cost of a wide fan-out: one payload allocation per frame instead of
    /// one deep clone per watcher.
    pub fn multicast_traced<T: Any>(
        &mut self,
        tos: &[NodeId],
        size: u64,
        value: T,
        traces: &[TraceCtx],
    ) {
        let from = self.node;
        let shared = Arc::new(value);
        self.sim.metrics.incr(names::MULTICAST_FRAMES, 1);
        self.sim
            .metrics
            .incr(names::MULTICAST_FANOUT_SENDS, tos.len() as u64);
        for &to in tos {
            self.sim.transmit_traced(
                from,
                to,
                size,
                Box::new(Arc::clone(&shared)),
                traces.to_vec(),
            );
        }
    }

    /// The first trace context on the envelope of the message currently
    /// being delivered, if the sender attached any via [`Ctx::send_traced`]
    /// or [`Ctx::send_traced_batch`].
    pub fn incoming_trace(&self) -> Option<TraceCtx> {
        self.sim.delivering_traces.first().copied()
    }

    /// The trace collector.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.sim.tracer
    }

    /// Records a deduplicated hop span at this node, now, under `parent`.
    /// Returns `None` (recording nothing) if this (trace, name, node) hop
    /// was already taken — i.e. the triggering message was a duplicate.
    pub fn trace_hop(
        &mut self,
        parent: TraceCtx,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
    ) -> Option<TraceCtx> {
        let node = self.node;
        let at = self.sim.now;
        self.sim.tracer.hop(parent, name, Some(node), at, attrs)
    }

    /// Records an annotation at this node, now, under `ctx`'s span.
    pub fn trace_annot(
        &mut self,
        ctx: TraceCtx,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
    ) {
        let node = self.node;
        let at = self.sim.now;
        self.sim.tracer.annot(ctx, name, Some(node), at, attrs);
    }

    /// Schedules [`Actor::on_timer`] on this node after `after`, with `tag`
    /// passed through. Timers are not cancellable; actors that need
    /// cancellation should carry a generation counter in their state and
    /// ignore stale tags.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        let at = self.sim.now + after;
        let node = self.node;
        self.sim.push(at, EventKind::Timer { node, tag });
    }

    /// The simulation RNG (deterministic per seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// Metric recording.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.sim.metrics
    }

    /// Classifies the network distance from this node to `other`.
    pub fn proximity(&self, other: NodeId) -> Proximity {
        self.sim.topo.proximity(self.node, other)
    }

    /// Publishes a counter delta into the ODS fleet plane, attributed to
    /// this node at true simulation time. One branch when the plane is off.
    pub fn ods_counter(&mut self, tier: &str, name: &str, delta: f64) {
        let node = self.node;
        let at = self.sim.now;
        self.sim.ods.emit_counter(node, tier, name, at, delta);
    }

    /// Publishes a latency-style sample into the ODS fleet plane.
    pub fn ods_sample(&mut self, tier: &str, name: &str, value: f64) {
        let node = self.node;
        let at = self.sim.now;
        self.sim.ods.emit_sample(node, tier, name, at, value);
    }

    /// Publishes a point-in-time gauge reading into the ODS fleet plane.
    pub fn ods_gauge(&mut self, tier: &str, name: &str, value: f64) {
        let node = self.node;
        let at = self.sim.now;
        self.sim.ods.emit_gauge(node, tier, name, at, value);
    }

    /// Rolls the ODS plane up at the current instant (used by
    /// [`OdsScraper`](crate::ods::OdsScraper)).
    pub fn ods_scrape(&mut self) {
        let at = self.sim.now;
        self.sim.ods.scrape(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        got: Vec<(NodeId, u64)>,
        timers: Vec<u64>,
        recovered: bool,
    }

    impl Actor for Counter {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            let v = *msg.downcast::<u64>().unwrap();
            self.got.push((from, v));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
            self.timers.push(tag);
        }
        fn on_recover(&mut self, _ctx: &mut Ctx<'_>) {
            self.recovered = true;
        }
    }

    fn two_node_sim() -> Sim {
        let topo = Topology::symmetric(1, 1, 2);
        let mut sim = Sim::new(topo, NetConfig::default(), 7);
        sim.add_actor(NodeId(0), Box::new(Counter::default()));
        sim.add_actor(NodeId(1), Box::new(Counter::default()));
        sim
    }

    #[test]
    fn message_delivery_in_order() {
        let mut sim = two_node_sim();
        sim.post(SimTime::ZERO, NodeId(1), NodeId(0), Box::new(1u64));
        sim.post(SimTime(10), NodeId(1), NodeId(0), Box::new(2u64));
        sim.run_until_idle();
        let a: &Counter = sim.actor(NodeId(0)).unwrap();
        assert_eq!(a.got, vec![(NodeId(1), 1), (NodeId(1), 2)]);
    }

    #[test]
    fn crash_drops_messages_and_recover_redelivers_nothing() {
        let mut sim = two_node_sim();
        sim.crash(NodeId(0));
        sim.post(SimTime::ZERO, NodeId(1), NodeId(0), Box::new(1u64));
        sim.run_until_idle();
        assert_eq!(sim.metrics().counter("simnet.dropped_to_down_node"), 1);
        sim.recover(NodeId(0));
        let a: &Counter = sim.actor(NodeId(0)).unwrap();
        assert!(a.recovered);
        assert!(a.got.is_empty());
    }

    #[test]
    fn partition_drops_cross_region_traffic() {
        let topo = Topology::symmetric(2, 1, 1);
        let mut sim = Sim::new(topo, NetConfig::default(), 7);
        sim.add_actor(NodeId(0), Box::new(Counter::default()));
        sim.add_actor(NodeId(1), Box::new(Counter::default()));
        sim.partition(RegionId(0), RegionId(1));
        // A send through the network model must be initiated by an actor;
        // drive it via a control event that sends from node 0's context.
        sim.schedule(SimTime::ZERO, |s| {
            s.transmit(NodeId(0), NodeId(1), 8, Box::new(9u64));
        });
        sim.run_until_idle();
        assert_eq!(sim.metrics().counter("simnet.dropped_partitioned"), 1);
        sim.heal(RegionId(0), RegionId(1));
        sim.schedule(sim.now(), |s| {
            s.transmit(NodeId(0), NodeId(1), 8, Box::new(9u64));
        });
        sim.run_until_idle();
        let b: &Counter = sim.actor(NodeId(1)).unwrap();
        assert_eq!(b.got.len(), 1);
    }

    #[test]
    fn oneway_partition_drops_only_one_direction() {
        let topo = Topology::symmetric(2, 1, 1);
        let mut sim = Sim::new(topo, NetConfig::default(), 7);
        sim.add_actor(NodeId(0), Box::new(Counter::default()));
        sim.add_actor(NodeId(1), Box::new(Counter::default()));
        sim.partition_oneway(RegionId(0), RegionId(1));
        assert!(sim.has_partitions());
        sim.schedule(SimTime::ZERO, |s| {
            s.transmit(NodeId(0), NodeId(1), 8, Box::new(1u64));
            s.transmit(NodeId(1), NodeId(0), 8, Box::new(2u64));
        });
        sim.run_until_idle();
        // 0 -> 1 is cut; 1 -> 0 still flows.
        assert_eq!(sim.metrics().counter("simnet.dropped_partitioned"), 1);
        let fwd: &Counter = sim.actor(NodeId(1)).unwrap();
        assert!(fwd.got.is_empty());
        let back: &Counter = sim.actor(NodeId(0)).unwrap();
        assert_eq!(back.got, vec![(NodeId(1), 2)]);
        sim.heal_oneway(RegionId(0), RegionId(1));
        assert!(!sim.has_partitions());
        sim.schedule(sim.now(), |s| {
            s.transmit(NodeId(0), NodeId(1), 8, Box::new(3u64));
        });
        sim.run_until_idle();
        let fwd: &Counter = sim.actor(NodeId(1)).unwrap();
        assert_eq!(fwd.got.len(), 1);
    }

    #[test]
    fn dropped_batch_frame_annotates_every_carried_trace() {
        use crate::trace::RecordKind;
        let topo = Topology::symmetric(2, 1, 1);
        let mut sim = Sim::new(topo, NetConfig::default(), 7);
        sim.add_actor(NodeId(0), Box::new(Counter::default()));
        sim.add_actor(NodeId(1), Box::new(Counter::default()));
        let a = sim
            .tracer_mut()
            .start("a", "root", None, SimTime(0), vec![]);
        let b = sim
            .tracer_mut()
            .start("b", "root", None, SimTime(0), vec![]);
        sim.partition(RegionId(0), RegionId(1));
        sim.schedule(SimTime::ZERO, move |s| {
            s.transmit_traced(NodeId(0), NodeId(1), 8, Box::new(9u64), vec![a, b]);
        });
        sim.run_until_idle();
        // One frame, two writes: the drop shows up on both waterfalls.
        for root in [a, b] {
            let drops = sim
                .tracer()
                .trace_records(root.trace)
                .into_iter()
                .filter(|r| r.kind == RecordKind::Annot && r.name == "net.drop")
                .count();
            assert_eq!(drops, 1, "trace {:?} missing its drop annot", root.trace);
        }
    }

    #[test]
    fn stall_defers_without_dropping_and_preserves_order() {
        let mut sim = two_node_sim();
        sim.stall(NodeId(0), SimTime(50_000));
        sim.post(SimTime(100), NodeId(1), NodeId(0), Box::new(1u64));
        sim.post(SimTime(200), NodeId(1), NodeId(0), Box::new(2u64));
        sim.run_until(SimTime(10_000));
        let a: &Counter = sim.actor(NodeId(0)).unwrap();
        assert!(a.got.is_empty(), "stalled node must not process yet");
        assert!(sim.metrics().counter(names::STALL_DEFERRED) >= 2);
        sim.run_until_idle();
        let a: &Counter = sim.actor(NodeId(0)).unwrap();
        assert_eq!(a.got, vec![(NodeId(1), 1), (NodeId(1), 2)]);
        assert_eq!(sim.metrics().counter(names::DROPPED_TO_DOWN_NODE), 0);
        assert!(sim.now() >= SimTime(50_000), "backlog drained at stall end");
    }

    #[test]
    fn stall_defers_timers_unlike_crash() {
        let topo = Topology::symmetric(1, 1, 1);
        let mut sim = Sim::new(topo, NetConfig::default(), 7);
        sim.schedule(SimTime(1_000), |s| {
            s.stall(NodeId(0), SimTime(30_000));
        });
        struct T;
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                let now = ctx.now();
                ctx.metrics().sample("fired_at", now.as_secs_f64());
            }
        }
        sim.add_actor(NodeId(0), Box::new(T));
        sim.run_until_idle();
        // The 5 ms timer fired, but only once the 30 ms stall ended.
        assert_eq!(sim.metrics().samples("fired_at"), &[0.03]);
    }

    #[test]
    fn clock_skew_shifts_local_reads_only() {
        let mut sim = two_node_sim();
        sim.set_clock_skew(NodeId(0), 2_000_000);
        sim.set_clock_skew(NodeId(1), -10_000_000);
        sim.run_until(SimTime(1_000_000));
        assert_eq!(sim.local_now(NodeId(0)), SimTime(3_000_000));
        // Negative skew saturates at the epoch instead of underflowing.
        assert_eq!(sim.local_now(NodeId(1)), SimTime::ZERO);
        assert_eq!(sim.now(), SimTime(1_000_000), "true time unaffected");
        sim.clear_clock_skew(NodeId(0));
        assert_eq!(sim.local_now(NodeId(0)), sim.now());
    }

    #[test]
    fn timers_fire_in_order() {
        let topo = Topology::symmetric(1, 1, 1);
        let mut sim = Sim::new(topo, NetConfig::default(), 7);

        struct T;
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                ctx.metrics().sample("fired", tag as f64);
            }
        }
        sim.add_actor(NodeId(0), Box::new(T));
        sim.run_until_idle();
        assert_eq!(sim.metrics().samples("fired"), &[1.0, 2.0]);
    }

    #[test]
    fn run_until_advances_clock_past_empty_queue() {
        let mut sim = two_node_sim();
        sim.run_until(SimTime(1_000_000));
        assert_eq!(sim.now(), SimTime(1_000_000));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let topo = Topology::symmetric(2, 2, 4);
            let mut sim = Sim::new(topo, NetConfig::default(), seed);
            for n in 0..16u32 {
                sim.add_actor(NodeId(n), Box::new(Counter::default()));
            }
            struct Pinger;
            impl Actor for Pinger {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    for n in 0..16u32 {
                        ctx.send_value(NodeId(n), 100, n as u64);
                    }
                }
                fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
            }
            sim.add_actor(NodeId(0), Box::new(Pinger));
            sim.run_until_idle();
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(3), run(3));
        // A different seed changes jitter and hence the final clock.
        assert_ne!(run(3).0, run(4).0);
    }

    #[test]
    fn egress_serialization_delays_bulk_fanout() {
        // With a 1 MB/s egress link, sending 1 MB to each of 4 peers must
        // take at least 4 seconds of egress occupancy for the last delivery.
        let topo = Topology::symmetric(1, 1, 5);
        let net = NetConfig {
            egress_bytes_per_sec: 1_000_000,
            ingress_bytes_per_sec: u64::MAX,
            max_jitter: SimDuration::ZERO,
            ..NetConfig::default()
        };
        let mut sim = Sim::new(topo, net, 1);
        for n in 0..5u32 {
            sim.add_actor(NodeId(n), Box::new(Counter::default()));
        }
        struct Bulk;
        impl Actor for Bulk {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for n in 1..5u32 {
                    ctx.send_value(NodeId(n), 1_000_000, 0u64);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        sim.add_actor(NodeId(0), Box::new(Bulk));
        sim.run_until_idle();
        assert!(sim.now().as_secs_f64() >= 4.0, "now = {}", sim.now());
    }

    /// The per-link FIFO clamp map must not grow with simulated time: a
    /// 10-minute run where every node slowly rotates through fresh peers
    /// (a new peer every simulated minute) would otherwise accumulate one
    /// entry per (from, to) pair ever used — all 16 x 15 = 240 here,
    /// unbounded on bigger fleets. The opportunistic prune in `step` keeps
    /// only links whose clamp is still in the future, so the map tracks
    /// the recently active set instead.
    #[test]
    fn link_order_stays_bounded_over_ten_minutes() {
        struct Rotator {
            n: u32,
            tick: u64,
        }
        impl Actor for Rotator {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(200), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                let me = ctx.node().0;
                // One message every 200 ms; a fresh peer every 60 s.
                let peer = (me + 1 + ((self.tick / 300) % (self.n as u64 - 1)) as u32) % self.n;
                ctx.send_value(NodeId(peer), 256, self.tick);
                self.tick += 1;
                ctx.set_timer(SimDuration::from_millis(200), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        let topo = Topology::symmetric(2, 2, 4);
        let n = topo.num_nodes() as u32;
        let mut sim = Sim::new(topo, NetConfig::default(), 3);
        for i in 0..n {
            sim.add_actor(NodeId(i), Box::new(Rotator { n, tick: 0 }));
        }
        sim.run_until(SimTime(600_000_000));
        assert!(
            sim.events_processed() > 2 * 65_536,
            "run too short to exercise the prune cadence ({} events)",
            sim.events_processed()
        );
        let entries = sim.link_order_entries();
        assert!(
            entries > 0 && entries < 100,
            "link_order must stay near the active link set, got {entries} \
             (unpruned would reach {})",
            n * (n - 1)
        );
    }
}
