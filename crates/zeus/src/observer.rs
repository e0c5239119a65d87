//! Observers: the middle tier of the distribution tree.
//!
//! "Each cluster ... has multiple servers designated as Zeus observers.
//! Each observer keeps a fully replicated read-only copy of the leader's
//! data. Upon receiving a write, the leader commits the write on the
//! followers, and then asynchronously pushes the write to each observer. If
//! an observer fails and then reconnects to the leader, it sends the latest
//! transaction ID it is aware of, and requests the missing writes" (§3.4).

use std::collections::{BTreeMap, VecDeque};

use simnet::intern::FxHashMap;
use simnet::ods;
use simnet::{Actor, Ctx, Message, NodeId, SimDuration, SimTime};

use crate::metrics::{
    hops, LEASE_EXPIRIES, LEASE_RENEWALS, LEASE_REPAIRS, OBSERVER_APPLIED, OBSERVER_GAP_RESYNCS,
};
use crate::store::{ConfigStore, WatchTable};
use crate::types::{
    batch_traces, batch_wire_size, control_wire, NotifyFrame, Write, ZeusMsg, Zxid, LOG_CAP,
    MAX_BATCH_WRITES,
};

const TIMER_ANTI_ENTROPY: u64 = 1;
/// Retry timer for an unanswered gap sync: a sync request (or its reply)
/// lost after the final push frame of a commit round would otherwise go
/// unnoticed until the next anti-entropy tick — there is no later frame
/// left to re-trigger the ask.
const TIMER_SYNC_RETRY: u64 = 2;

/// One watcher's lease: the observer-side half of the counter pair that
/// replaces per-path re-subscribes as the loss detector. The observer
/// counts every notify frame it sends the watcher; the watcher counts every
/// frame it receives; a ping or renewal carries the watcher's count back
/// and any settled shortfall means loss — repaired by re-pushing the full
/// current state of the watcher's paths.
struct Lease {
    /// The granted epoch (the observer's generation at grant time). A
    /// restart bumps the generation, fencing this lease off.
    epoch: u64,
    /// Notify frames sent to this watcher under the lease.
    frames_sent: u64,
    /// Send log of `(sent_at, cumulative frames_sent)` for frames that may
    /// still be in flight. Entries older than the settle window are pruned
    /// into `settled` — the floor the watcher's counter is compared
    /// against, so frames racing the ping never read as losses.
    sent_log: VecDeque<(SimTime, u64)>,
    /// Highest cumulative count whose frame has had time to arrive.
    settled: u64,
    /// Last establish/renewal/valid-ping time; the anti-entropy sweep
    /// expires leases idle past the TTL and drops their watches.
    last_renew: SimTime,
}

/// An observer node: full replica plus per-path watches for the proxies in
/// its cluster.
pub struct ObserverActor {
    leader: NodeId,
    store: ConfigStore,
    watches: WatchTable,
    /// Periodic resync interval. Push delivery is the fast path; the
    /// periodic `ObserverSync` is anti-entropy that repairs any updates
    /// lost to partitions or drops (a caught-up observer costs the leader
    /// one empty reply).
    sync_every: SimDuration,
    /// Contiguity cursor: the highest zxid up to which this observer
    /// provably holds every committed write. Advances one step at a time
    /// through in-order pushes, and jumps only on a leader-asserted
    /// `SyncReply`. Sync requests are keyed off this — NOT off
    /// `store.last_applied()`, which moves past holes and would hide a
    /// dropped update from every later catch-up request.
    contig: Zxid,
    /// When the last sync request went out, if unanswered. Gap detections
    /// while a sync is already in flight do not issue another request:
    /// every chunk of a push round carries the same commit head, so an
    /// ungated observer would ask for the same missing range once per
    /// arriving frame and the leader would ship the (payload-heavy) reply
    /// just as many times.
    sync_inflight: Option<SimTime>,
    /// How long an unanswered sync blocks re-requests (covers the
    /// cross-region round trip; a lost reply is retried after this).
    sync_retry: SimDuration,
    /// Highest commit head any push frame has asserted. The retry timer
    /// keeps asking until the contiguity cursor reaches it.
    target_head: Zxid,
    /// Whether a `TIMER_SYNC_RETRY` is outstanding (timers cannot be
    /// cancelled, so arming is deduplicated instead).
    retry_armed: bool,
    /// Lease generation: granted as the epoch of new leases, bumped on
    /// recovery so every pre-restart lease is fenced off (stale renewals
    /// are nacked and the watcher re-establishes with a full re-subscribe).
    /// Starts at 1 — epoch 0 is the wire sentinel for "no lease".
    lease_gen: u64,
    /// Active leases by watcher node.
    /// Hash map, not BTree: `note_sent` probes this once per receiver per
    /// fan-out frame and the ping handler once per healthcheck fleet-wide.
    /// The only iteration (the expiry sweep) sorts its hits before acting,
    /// so replay determinism is untouched.
    leases: FxHashMap<NodeId, Lease>,
    /// Idle time after which the anti-entropy sweep expires a lease. Only
    /// leased watchers expire: laser servers and MobileConfig populations
    /// never establish one, so they keep their watches.
    lease_ttl: SimDuration,
    /// How long a sent frame may be in flight before its absence from the
    /// watcher's counter means loss (just above the worst one-way
    /// datacenter delay).
    lease_settle: SimDuration,
}

impl ObserverActor {
    /// Creates an observer that syncs from `leader`.
    pub fn new(leader: NodeId) -> ObserverActor {
        ObserverActor {
            leader,
            store: ConfigStore::new(LOG_CAP),
            watches: WatchTable::new(),
            sync_every: SimDuration::from_secs(2),
            contig: Zxid::ZERO,
            sync_inflight: None,
            // Just over the worst cross-region round trip (~80 ms), so a
            // lost ask or reply is re-asked on the next heartbeat after
            // the window closes rather than after an anti-entropy tick.
            sync_retry: SimDuration::from_millis(100),
            target_head: Zxid::ZERO,
            retry_armed: false,
            lease_gen: 1,
            leases: FxHashMap::default(),
            lease_ttl: SimDuration::from_secs(6),
            lease_settle: SimDuration::from_millis(50),
        }
    }

    /// Read access to the replica (for tests and experiments).
    pub fn store(&self) -> &ConfigStore {
        &self.store
    }

    /// Number of active watch registrations.
    pub fn watch_count(&self) -> usize {
        self.watches.len()
    }

    /// Number of active watch leases (for tests).
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// The contiguity cursor (see the field docs). Exposed for tests that
    /// audit the cursor against the writes actually held.
    pub fn contiguous(&self) -> Zxid {
        self.contig
    }

    fn sync(&mut self, ctx: &mut Ctx<'_>) {
        self.sync_inflight = Some(ctx.now());
        ctx.send_value(
            self.leader,
            64,
            ZeusMsg::ObserverSync {
                last_zxid: self.contig,
            },
        );
    }

    /// Gap-triggered sync, gated on the in-flight request: at most one
    /// outstanding ask per `sync_retry` window, however many frames report
    /// the same hole, with a retry timer covering a lost ask (or reply).
    /// `OBSERVER_GAP_RESYNCS` counts requests actually sent.
    fn gap_sync(&mut self, ctx: &mut Ctx<'_>) {
        self.gated_sync(ctx);
        if !self.retry_armed {
            self.retry_armed = true;
            ctx.set_timer(self.sync_retry, TIMER_SYNC_RETRY);
        }
    }

    /// Sends a gap resync unless one is already in flight and fresh.
    fn gated_sync(&mut self, ctx: &mut Ctx<'_>) {
        let fresh = self
            .sync_inflight
            .is_some_and(|at| ctx.now() - at < self.sync_retry);
        if !fresh {
            ctx.metrics().incr(OBSERVER_GAP_RESYNCS, 1);
            self.sync(ctx);
        }
    }

    /// Whether `z` is the immediate successor of the contiguity cursor.
    fn is_next(&self, z: Zxid) -> bool {
        if self.contig == Zxid::ZERO {
            z == Zxid {
                epoch: 1,
                counter: 1,
            }
        } else {
            z == self.contig.next()
        }
    }

    /// Records one notify frame sent to `to` under its lease, if any.
    /// Lease-less watchers (laser servers, MobileConfig populations) are a
    /// no-op: nobody will compare a counter for them.
    fn note_sent(&mut self, to: NodeId, now: SimTime) {
        if let Some(l) = self.leases.get_mut(&to) {
            l.frames_sent += 1;
            l.sent_log.push_back((now, l.frames_sent));
        }
    }

    /// Prunes the send log up to the settle horizon and returns the floor
    /// the watcher's counter must have reached: frames sent recently enough
    /// to still be in flight are excluded, so the comparison never reads a
    /// racing frame as a loss.
    fn settle(lease: &mut Lease, now: SimTime, window: SimDuration) -> u64 {
        while let Some(&(at, n)) = lease.sent_log.front() {
            if now - at >= window {
                lease.settled = n;
                lease.sent_log.pop_front();
            } else {
                break;
            }
        }
        lease.settled
    }

    /// Grants a fresh lease epoch (unique per observer lifetime).
    fn grant_epoch(&mut self) -> u64 {
        self.lease_gen += 1;
        self.lease_gen
    }

    /// Loss repair: the counters disagreed, so re-push the full current
    /// state of every path `node` watches under a FRESH lease epoch, then
    /// ack the new lease. Repairing directly (instead of nacking and
    /// forcing a re-subscribe round trip) keeps each repair round to one
    /// lossy observer→proxy leg, not three. The fresh epoch is what makes a
    /// dropped repair chunk recoverable: the watcher's receipt count of
    /// the chunks becomes its new counter, so any shortfall shows up at
    /// the very next ping and triggers another repair round.
    fn repair(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.metrics().incr(LEASE_REPAIRS, 1);
        let epoch = self.grant_epoch();
        let mut writes: Vec<Write> = self
            .watches
            .paths_of(node)
            .filter_map(|p| self.store.get(p).cloned())
            .collect();
        writes.sort_by_key(|w| w.zxid);
        let now = ctx.now();
        let mut lease = Lease {
            epoch,
            frames_sent: 0,
            sent_log: VecDeque::new(),
            settled: 0,
            last_renew: now,
        };
        for chunk in writes.chunks(MAX_BATCH_WRITES) {
            lease.frames_sent += 1;
            lease.sent_log.push_back((now, lease.frames_sent));
            ctx.send_traced_batch(
                node,
                batch_wire_size(chunk) + 8,
                Box::new(ZeusMsg::RepairBatch {
                    epoch,
                    writes: chunk.to_vec(),
                }),
                batch_traces(chunk),
            );
        }
        let frames_sent = lease.frames_sent;
        self.leases.insert(node, lease);
        let paths = self.watches.paths_of(node).count() as u64;
        ctx.send_value(
            node,
            control_wire::ACK,
            ZeusMsg::LeaseAck {
                epoch,
                frames_sent,
                repaired: true,
                paths,
            },
        );
    }

    /// Shared-frame watch fan-out for one applied batch. Watchers are
    /// grouped by the exact subset of changed paths they watch; each
    /// group's payload is built ONCE and multicast as an `Arc`-shared
    /// [`NotifyFrame`] — per-receiver link bandwidth is charged by the
    /// simulator without cloning the payload per receiver. In the common
    /// fleet case every proxy in the cluster watches the same paths, so a
    /// hundred-proxy fan-out allocates one frame instead of a hundred
    /// cloned `Vec<Write>`s.
    fn notify_watchers(&mut self, ctx: &mut Ctx<'_>, changed: &[String]) {
        if changed.is_empty() {
            return;
        }
        // A batch with several writes to one path changes it once: the
        // notify carries the current (latest) state, in zxid order.
        let mut seen: Vec<&str> = Vec::new();
        let mut current: Vec<Write> = Vec::new();
        for path in changed {
            if seen.contains(&path.as_str()) {
                continue;
            }
            seen.push(path);
            if let Some(w) = self.store.get(path) {
                current.push(w.clone());
            }
        }
        current.sort_by_key(|w| w.zxid);
        // Fast path: one changed path (the overwhelmingly common shape —
        // commits usually push one write per frame) means every watcher of
        // that path receives the identical one-write frame. The generic
        // grouping below would allocate a per-watcher index Vec and build
        // two maps just to rediscover that single group; at paper scale
        // that is millions of allocations per replay.
        if let [w] = &current[..] {
            let nodes: Vec<NodeId> = self.watches.watchers(&w.path).collect();
            if nodes.is_empty() {
                return;
            }
            let writes = vec![w.clone()];
            let size = batch_wire_size(&writes);
            let traces = batch_traces(&writes);
            let now = ctx.now();
            for &n in &nodes {
                self.note_sent(n, now);
            }
            if let [only] = nodes[..] {
                ctx.send_traced_batch(
                    only,
                    size,
                    Box::new(ZeusMsg::NotifyBatch { writes }),
                    traces,
                );
            } else {
                ctx.multicast_traced(&nodes, size, NotifyFrame { writes }, &traces);
            }
            return;
        }
        // Per-watcher ascending index lists into `current` (= zxid order).
        let mut per_watcher: BTreeMap<NodeId, Vec<u16>> = BTreeMap::new();
        for (i, w) in current.iter().enumerate() {
            for node in self.watches.watchers(&w.path) {
                per_watcher.entry(node).or_default().push(i as u16);
            }
        }
        // Invert: watchers sharing an identical subset form one multicast
        // group. BTree ordering keeps iteration — and therefore simulated
        // message order — deterministic across processes.
        let mut groups: BTreeMap<Vec<u16>, Vec<NodeId>> = BTreeMap::new();
        for (watcher, idxs) in per_watcher {
            groups.entry(idxs).or_default().push(watcher);
        }
        let now = ctx.now();
        for (idxs, nodes) in groups {
            for chunk in idxs.chunks(MAX_BATCH_WRITES) {
                let writes: Vec<Write> =
                    chunk.iter().map(|&i| current[i as usize].clone()).collect();
                let size = batch_wire_size(&writes);
                let traces = batch_traces(&writes);
                for &n in &nodes {
                    self.note_sent(n, now);
                }
                if let [only] = nodes[..] {
                    // Single-receiver group: a plain owned frame, no Arc.
                    ctx.send_traced_batch(
                        only,
                        size,
                        Box::new(ZeusMsg::NotifyBatch { writes }),
                        traces,
                    );
                } else {
                    ctx.multicast_traced(&nodes, size, NotifyFrame { writes }, &traces);
                }
            }
        }
    }
}

impl Actor for ObserverActor {
    fn kind(&self) -> &'static str {
        "zeus.observer"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sync(ctx);
        ctx.set_timer(self.sync_every, TIMER_ANTI_ENTROPY);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_ANTI_ENTROPY {
            self.sync(ctx);
            // Lease sweep: a watcher that stopped renewing (partitioned,
            // crashed, failed over elsewhere) loses its lease AND its
            // watches — fan-out stops paying for dead subscribers. Only
            // leased watchers expire; laser servers and MobileConfig
            // populations never lease and keep their watches.
            let now = ctx.now();
            let mut expired: Vec<NodeId> = self
                .leases
                .iter()
                .filter(|(_, l)| now - l.last_renew > self.lease_ttl)
                .map(|(&n, _)| n)
                .collect();
            // Hash-order iteration: sort so the sweep acts in a stable
            // order (none of its effects send messages, but replay
            // determinism should not hinge on that staying true).
            expired.sort_unstable();
            for n in expired {
                self.leases.remove(&n);
                self.watches.drop_node(n);
                ctx.metrics().incr(LEASE_EXPIRIES, 1);
            }
            ctx.set_timer(self.sync_every, TIMER_ANTI_ENTROPY);
        } else if tag == TIMER_SYNC_RETRY {
            self.retry_armed = false;
            if self.contig < self.target_head {
                self.gap_sync(ctx);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let Ok(msg) = msg.downcast::<ZeusMsg>() else {
            return;
        };
        match *msg {
            ZeusMsg::ObserverUpdateBatch { writes, upto } => {
                // All-or-nothing push frame: the writes arrive together, in
                // zxid order. Walk the contiguity cursor through the whole
                // frame, then compare it against the commit head the frame
                // asserts: any shortfall — a hole inside this frame, a
                // dropped sibling chunk, or an epoch boundary we cannot
                // locally account for — is ONE gap, answered by ONE resync.
                for w in &writes {
                    let z = w.zxid;
                    if self.is_next(z) {
                        self.contig = z;
                    }
                }
                self.target_head = self.target_head.max(upto);
                if self.contig < upto {
                    // The writes are still applied below so reads stay
                    // fresh; the resync repairs the missing range.
                    self.gap_sync(ctx);
                }
                let mut changed: Vec<String> = Vec::new();
                for mut write in writes {
                    // Re-root the context at this observer so proxy hops
                    // hang off the observer that served them; the per-node
                    // dedup key makes retransmitted pushes record nothing.
                    if let Some(t) = write.trace {
                        if let Some(c) = ctx.trace_hop(
                            t,
                            hops::OBSERVER_APPLY,
                            vec![("zxid", write.zxid.to_string()), ("via", "push".into())],
                        ) {
                            write.trace = Some(c);
                        }
                    }
                    let path = write.path.clone();
                    if self.store.apply(write) {
                        changed.push(path);
                        ctx.metrics().incr(OBSERVER_APPLIED, 1);
                        ctx.ods_counter(ods::tiers::OBSERVER, ods::series::APPLIED, 1.0);
                    }
                }
                self.notify_watchers(ctx, &changed);
            }
            ZeusMsg::SyncReply { writes, upto } => {
                // Atomic catch-up from the leader: absorb may repair holes
                // behind `last_applied`, so notify watchers of every path
                // whose materialized value actually changed.
                self.sync_inflight = None;
                let mut changed: Vec<String> = Vec::new();
                for mut w in writes {
                    if let Some(t) = w.trace {
                        if let Some(c) = ctx.trace_hop(
                            t,
                            hops::OBSERVER_APPLY,
                            vec![("zxid", w.zxid.to_string()), ("via", "sync".into())],
                        ) {
                            w.trace = Some(c);
                        }
                    }
                    let path = w.path.clone();
                    if self.store.absorb(w) {
                        changed.push(path);
                    }
                }
                self.store.fast_forward(upto);
                self.contig = self.contig.max(upto);
                self.notify_watchers(ctx, &changed);
                // The reply may assert less than the pushed head (a fresh
                // leader clamps to its own gap-free prefix); keep asking
                // until the cursor reaches everything a push promised.
                if self.contig < self.target_head {
                    self.gap_sync(ctx);
                }
            }
            ZeusMsg::Subscribe { path, have } => {
                self.watches.watch(from, &path);
                // Most re-subscribes are caught up; compare zxids before
                // cloning the stored write. Under leases this runs once at
                // establishment per path, not once per health check.
                let mut sent = false;
                if let Some(w) = self.store.get(&path) {
                    if w.zxid > have {
                        let w = w.clone();
                        let trace = w.trace;
                        ctx.send_traced(
                            from,
                            w.wire_size(),
                            Box::new(ZeusMsg::Notify { write: w }),
                            trace,
                        );
                        sent = true;
                    }
                }
                if sent {
                    // In-order delivery puts establishment Subscribes after
                    // the LeaseRenew that created the lease, so this reply
                    // is counted on both ends.
                    self.note_sent(from, ctx.now());
                }
            }
            ZeusMsg::NewLeader { leader, .. } => {
                self.leader = leader;
                self.sync(ctx);
            }
            ZeusMsg::Heartbeat { committed, .. } => {
                // The leader heartbeats observers with its commit head:
                // push frames are all-or-nothing, so this 64-byte signal is
                // what reveals a fully dropped push round. Gated — at 20
                // heartbeats/s an ungated ask would turn one hole into a
                // payload-heavy sync-reply flood.
                self.target_head = self.target_head.max(committed);
                if self.contig < committed {
                    self.gated_sync(ctx);
                }
            }
            ZeusMsg::ProxyPing {
                epoch,
                frames_received,
            } => {
                // Epoch 0 = a pinger still establishing its lease: answer
                // liveness only.
                if epoch == 0 {
                    ctx.send_value(
                        from,
                        control_wire::PONG,
                        ZeusMsg::ProxyPong { lease_ok: true },
                    );
                } else {
                    let now = ctx.now();
                    let window = self.lease_settle;
                    // One map probe decides all three outcomes; this runs
                    // once per proxy per healthcheck fleet-wide.
                    let lost = match self.leases.get_mut(&from) {
                        Some(l) if l.epoch == epoch => {
                            // A live pinger keeps its lease: expiry is
                            // reserved for watchers that stopped talking
                            // entirely.
                            l.last_renew = now;
                            Some(Self::settle(l, now, window) > frames_received)
                        }
                        // A known watcher pinging under a superseded epoch:
                        // this observer granted a newer lease whose ack was
                        // lost. Its watch set is intact, so repair in place
                        // — bouncing through re-establishment would stretch
                        // the recovery chain to four lossy legs (ping, pong,
                        // renew+subscribe, notify) where repair needs two,
                        // wrecking tail propagation under sustained drop.
                        Some(_) => Some(true),
                        // Unknown lease (expired, or fenced by a restart
                        // that cleared the table): the pinger re-establishes
                        // with a full re-subscribe — its watch set here may
                        // be stale, so only the Subscribe path can rebuild
                        // it.
                        None => None,
                    };
                    match lost {
                        Some(true) => {
                            // The piggybacked counters turn every
                            // healthcheck into a loss detector: repair now,
                            // at the same cadence the per-check
                            // re-subscribe used to.
                            self.repair(ctx, from);
                        }
                        Some(false) => ctx.send_value(
                            from,
                            control_wire::PONG,
                            ZeusMsg::ProxyPong { lease_ok: true },
                        ),
                        None => ctx.send_value(
                            from,
                            control_wire::PONG,
                            ZeusMsg::ProxyPong { lease_ok: false },
                        ),
                    }
                }
            }
            ZeusMsg::LeaseRenew {
                epoch,
                frames_received,
            } => {
                ctx.metrics().incr(LEASE_RENEWALS, 1);
                let now = ctx.now();
                if epoch == 0 {
                    // Establishment. Drop any stale watch set first — the
                    // Subscribes following on this link rebuild it, and
                    // in-order delivery means they register under the new
                    // lease (after this ack, on the reply link).
                    self.watches.drop_node(from);
                    let granted = self.grant_epoch();
                    self.leases.insert(
                        from,
                        Lease {
                            epoch: granted,
                            frames_sent: 0,
                            sent_log: VecDeque::new(),
                            settled: 0,
                            last_renew: now,
                        },
                    );
                    ctx.send_value(
                        from,
                        control_wire::ACK,
                        ZeusMsg::LeaseAck {
                            epoch: granted,
                            frames_sent: 0,
                            repaired: false,
                            paths: 0,
                        },
                    );
                } else {
                    match self.leases.get_mut(&from) {
                        Some(l) if l.epoch == epoch => {
                            l.last_renew = now;
                            let lost = Self::settle(l, now, self.lease_settle) > frames_received;
                            let (epoch, frames_sent) = (l.epoch, l.frames_sent);
                            if lost {
                                // `repair` grants a fresh epoch and acks it.
                                self.repair(ctx, from);
                            } else {
                                let paths = self.watches.paths_of(from).count() as u64;
                                ctx.send_value(
                                    from,
                                    control_wire::ACK,
                                    ZeusMsg::LeaseAck {
                                        epoch,
                                        frames_sent,
                                        repaired: false,
                                        paths,
                                    },
                                );
                            }
                        }
                        // Superseded epoch from a watcher this observer
                        // still knows: the newer lease's ack was lost —
                        // repair in place (fresh epoch + full state) instead
                        // of nacking into a re-subscribe round trip.
                        Some(_) => self.repair(ctx, from),
                        None => {
                            ctx.send_value(
                                from,
                                control_wire::NACK,
                                ZeusMsg::LeaseNack {
                                    epoch: self.lease_gen,
                                },
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
        // "If an observer fails and then reconnects to the leader, it sends
        // the latest transaction ID it is aware of" (§3.4).
        //
        // Epoch fence: every pre-restart lease dies with the restart — its
        // counters are gone, so any counter comparison against it would be
        // fiction. Bumping the generation makes stale pings answer
        // `lease_ok: false` and stale renewals nack, sending each watcher
        // back through full re-subscribe establishment. The watch table
        // itself survives (re-watching is idempotent) so lease-less
        // watchers keep their registrations.
        self.lease_gen += 1;
        self.leases.clear();
        self.sync(ctx);
        ctx.set_timer(self.sync_every, TIMER_ANTI_ENTROPY);
    }
}
