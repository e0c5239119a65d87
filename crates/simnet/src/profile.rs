//! The simulator's self-profiler: per-actor × per-event-class accounting.
//!
//! The ROADMAP's paper-scale goal ("simnet fast enough for 100k servers")
//! needs to know where simulated *and* wall time actually go before any
//! refactor of the discrete-event core can be judged. This module collects,
//! with near-zero cost when disabled:
//!
//! * per-node, per-actor-kind dispatch counts and wall time spent inside
//!   handlers ([`Actor::kind`] labels the subsystem);
//! * per-node message bytes in/out as charged by the network model;
//! * event-queue occupancy: peak depth and mean depth per processed event.
//!
//! Wall-time fields are inherently nondeterministic; every query that feeds
//! a golden-gated report must use the *virtual* fields only (event counts,
//! bytes, queue depths), which are exact replays of the deterministic event
//! schedule. [`Profiler::folded_stacks`] renders both flavors: wall
//! nanoseconds for flamegraphs, event counts for byte-stable diffs.
//!
//! [`Actor::kind`]: crate::sim::Actor::kind

use std::collections::BTreeMap;
use std::time::Instant;

use crate::topology::NodeId;

/// A raw monotonic timestamp in *ticks* (TSC counts on x86_64, nanoseconds
/// elsewhere). Differences of these are converted to nanoseconds by the
/// profiler's calibration factor; reading one is several times cheaper
/// than `Instant::now`, which matters because the profiler reads two per
/// dispatched event.
#[inline]
pub(crate) fn now_ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC has no preconditions; it reads the timestamp counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Measures nanoseconds per tick over a short spin. On non-x86 the tick
/// already *is* a nanosecond and the factor is exactly 1.
fn calibrate_ns_per_tick() -> f64 {
    #[cfg(not(target_arch = "x86_64"))]
    {
        1.0
    }
    #[cfg(target_arch = "x86_64")]
    {
        let start = Instant::now();
        let t0 = now_ticks();
        // ~200µs is plenty: TSC rates are GHz-scale, so this spans
        // hundreds of thousands of ticks.
        while start.elapsed().as_micros() < 200 {
            std::hint::spin_loop();
        }
        let ticks = now_ticks().saturating_sub(t0);
        if ticks == 0 {
            1.0
        } else {
            start.elapsed().as_nanos() as f64 / ticks as f64
        }
    }
}

/// The class of event being dispatched to an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// [`Actor::on_start`](crate::sim::Actor::on_start) dispatch.
    Start,
    /// [`Actor::on_message`](crate::sim::Actor::on_message) dispatch.
    Deliver,
    /// [`Actor::on_timer`](crate::sim::Actor::on_timer) dispatch.
    Timer,
    /// [`Actor::on_recover`](crate::sim::Actor::on_recover) dispatch.
    Recover,
    /// A driver control closure run against the simulator.
    Control,
}

impl EventClass {
    /// Stable lowercase label used in folded stacks and reports.
    pub fn label(self) -> &'static str {
        match self {
            EventClass::Start => "start",
            EventClass::Deliver => "deliver",
            EventClass::Timer => "timer",
            EventClass::Recover => "recover",
            EventClass::Control => "control",
        }
    }
}

/// Accumulated dispatch accounting for one (actor kind, event class) cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cell {
    /// Number of dispatches.
    pub events: u64,
    /// Wall time spent inside the handler, in nanoseconds
    /// (nondeterministic; excluded from golden-gated output).
    pub wall_ns: u64,
}

/// Per-node accounting.
#[derive(Debug, Clone, Default)]
pub struct NodeProfile {
    /// The [`Actor::kind`](crate::sim::Actor::kind) label seen at the most
    /// recent dispatch on this node (empty before any dispatch).
    pub kind: &'static str,
    /// Handler dispatches on this node.
    pub events: u64,
    /// Wall nanoseconds inside this node's handlers (nondeterministic).
    pub wall_ns: u64,
    /// Bytes arriving at this node through the network model.
    pub bytes_in: u64,
    /// Bytes this node put on the wire.
    pub bytes_out: u64,
}

/// One row of the hot-actor table.
#[derive(Debug, Clone)]
pub struct HotActor {
    /// The node.
    pub node: NodeId,
    /// Its actor kind label.
    pub kind: &'static str,
    /// Handler dispatches.
    pub events: u64,
    /// Wall nanoseconds inside handlers.
    pub wall_ns: u64,
    /// Share of total handler wall time (0..=1).
    pub wall_share: f64,
    /// Message bytes in + out.
    pub bytes: u64,
}

/// The profiler attached to a [`Sim`](crate::sim::Sim).
///
/// Disabled by default: every record call is a single branch, no clock
/// reads, no allocation. Enable with
/// [`Sim::enable_profiler`](crate::sim::Sim::enable_profiler) before the
/// run being measured.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    /// Flat cell table scanned linearly on the hot path. The working set is
    /// a handful of (kind, class) pairs and `kind` labels are `'static`
    /// literals, so a pointer-equality fast path resolves almost every
    /// lookup without touching string bytes — measurably cheaper than the
    /// `BTreeMap` walk this replaces, which string-compared on every probe.
    cells: Vec<((&'static str, EventClass), Cell)>,
    /// Nanoseconds per raw [`now_ticks`] tick, calibrated at [`enable`]
    /// time (1.0 until then, and exactly 1.0 off x86_64).
    ///
    /// [`enable`]: Profiler::enable
    ns_per_tick: f64,
    nodes: Vec<NodeProfile>,
    queue_peak: usize,
    queue_depth_sum: u128,
    queue_observations: u64,
}

impl Profiler {
    pub(crate) fn new(num_nodes: usize) -> Profiler {
        Profiler {
            enabled: false,
            cells: Vec::new(),
            ns_per_tick: 1.0,
            nodes: (0..num_nodes).map(|_| NodeProfile::default()).collect(),
            queue_peak: 0,
            queue_depth_sum: 0,
            queue_observations: 0,
        }
    }

    pub(crate) fn enable(&mut self) {
        self.enabled = true;
        self.ns_per_tick = calibrate_ns_per_tick();
    }

    /// Whether the profiler is recording (per-dispatch accounting and
    /// queue-depth stats).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn cell_mut(&mut self, kind: &'static str, class: EventClass) -> &mut Cell {
        let pos = self.cells.iter().position(|((k, c), _)| {
            *c == class && (std::ptr::eq(k.as_ptr(), kind.as_ptr()) || *k == kind)
        });
        let pos = match pos {
            Some(p) => p,
            None => {
                self.cells.push(((kind, class), Cell::default()));
                self.cells.len() - 1
            }
        };
        &mut self.cells[pos].1
    }

    #[inline]
    pub(crate) fn record_dispatch(
        &mut self,
        node: NodeId,
        kind: &'static str,
        class: EventClass,
        ticks: u64,
    ) {
        let wall_ns = (ticks as f64 * self.ns_per_tick) as u64;
        let cell = self.cell_mut(kind, class);
        cell.events += 1;
        cell.wall_ns += wall_ns;
        let n = &mut self.nodes[node.0 as usize];
        n.kind = kind;
        n.events += 1;
        n.wall_ns += wall_ns;
    }

    #[inline]
    pub(crate) fn record_control(&mut self, ticks: u64) {
        let wall_ns = (ticks as f64 * self.ns_per_tick) as u64;
        let cell = self.cell_mut("driver", EventClass::Control);
        cell.events += 1;
        cell.wall_ns += wall_ns;
    }

    #[inline]
    pub(crate) fn record_bytes_in(&mut self, node: NodeId, bytes: u64) {
        self.nodes[node.0 as usize].bytes_in += bytes;
    }

    #[inline]
    pub(crate) fn record_bytes_out(&mut self, node: NodeId, bytes: u64) {
        self.nodes[node.0 as usize].bytes_out += bytes;
    }

    /// Queue length is observed in `push` (to catch bursts between pops)
    /// and per `step` (for the occupancy mean).
    #[inline]
    pub(crate) fn observe_queue_push(&mut self, len: usize) {
        if len > self.queue_peak {
            self.queue_peak = len;
        }
    }

    #[inline]
    pub(crate) fn observe_queue_step(&mut self, len: usize) {
        self.queue_depth_sum += len as u128;
        self.queue_observations += 1;
    }

    /// Peak event-queue depth observed (virtual; deterministic).
    pub fn queue_peak(&self) -> usize {
        self.queue_peak
    }

    /// Mean event-queue depth per processed event (virtual; deterministic).
    pub fn queue_mean(&self) -> f64 {
        if self.queue_observations == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_observations as f64
        }
    }

    /// All (kind, class) cells in key order. The hot-path table is insertion
    /// ordered, so sort a snapshot here — report time, not dispatch time.
    pub fn cells(&self) -> impl Iterator<Item = (&'static str, EventClass, Cell)> + '_ {
        let mut rows: Vec<(&'static str, EventClass, Cell)> = self
            .cells
            .iter()
            .map(|&((k, c), cell)| (k, c, cell))
            .collect();
        rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        rows.into_iter()
    }

    /// Per-kind aggregation over event classes, in kind order.
    pub fn by_kind(&self) -> Vec<(&'static str, Cell)> {
        let mut agg: BTreeMap<&'static str, Cell> = BTreeMap::new();
        for &((kind, _), cell) in &self.cells {
            let a = agg.entry(kind).or_default();
            a.events += cell.events;
            a.wall_ns += cell.wall_ns;
        }
        agg.into_iter().collect()
    }

    /// Per-subsystem (actor kind) share of total handler wall time,
    /// descending. Nondeterministic (wall clock); for the live perf report
    /// and `BENCH_simnet.json`, not for goldens.
    pub fn subsystem_wall_shares(&self) -> Vec<(&'static str, f64)> {
        let per_kind = self.by_kind();
        let total: u64 = per_kind.iter().map(|(_, c)| c.wall_ns).sum();
        if total == 0 {
            return per_kind.iter().map(|(k, _)| (*k, 0.0)).collect();
        }
        let mut shares: Vec<(&'static str, f64)> = per_kind
            .iter()
            .map(|(k, c)| (*k, c.wall_ns as f64 / total as f64))
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(b.0)));
        shares
    }

    /// The hottest `n` actors by handler wall time, descending (ties broken
    /// by node id so equal-wall rows order stably).
    pub fn hot_actors(&self, n: usize) -> Vec<HotActor> {
        let total: u64 = self.nodes.iter().map(|p| p.wall_ns).sum();
        let mut rows: Vec<HotActor> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.events > 0 || p.bytes_in > 0 || p.bytes_out > 0)
            .map(|(i, p)| HotActor {
                node: NodeId(i as u32),
                kind: p.kind,
                events: p.events,
                wall_ns: p.wall_ns,
                wall_share: if total == 0 {
                    0.0
                } else {
                    p.wall_ns as f64 / total as f64
                },
                bytes: p.bytes_in + p.bytes_out,
            })
            .collect();
        rows.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.node.0.cmp(&b.node.0)));
        rows.truncate(n);
        rows
    }

    /// The busiest `n` actors by *event count* (virtual; deterministic).
    pub fn busy_actors(&self, n: usize) -> Vec<HotActor> {
        let mut rows = self.hot_actors(usize::MAX);
        rows.sort_by(|a, b| b.events.cmp(&a.events).then(a.node.0.cmp(&b.node.0)));
        rows.truncate(n);
        rows
    }

    /// Renders the hot-actor table as aligned text. `wall` selects between
    /// wall-time ranking (live profiling) and event-count ranking with wall
    /// columns suppressed (deterministic / golden mode).
    pub fn render_hot_actors(&self, n: usize, wall: bool) -> String {
        use std::fmt::Write as _;
        let rows = if wall {
            self.hot_actors(n)
        } else {
            self.busy_actors(n)
        };
        let mut out = String::new();
        if wall {
            let _ = writeln!(
                out,
                "  {:>6} {:<20} {:>10} {:>9} {:>6} {:>12}",
                "node", "kind", "events", "wall_ms", "share", "bytes"
            );
            for r in &rows {
                let _ = writeln!(
                    out,
                    "  {:>6} {:<20} {:>10} {:>9.2} {:>5.1}% {:>12}",
                    r.node.0,
                    r.kind,
                    r.events,
                    r.wall_ns as f64 / 1e6,
                    r.wall_share * 100.0,
                    r.bytes
                );
            }
        } else {
            let _ = writeln!(
                out,
                "  {:>6} {:<20} {:>10} {:>12}",
                "node", "kind", "events", "bytes"
            );
            for r in &rows {
                let _ = writeln!(
                    out,
                    "  {:>6} {:<20} {:>10} {:>12}",
                    r.node.0, r.kind, r.events, r.bytes
                );
            }
        }
        out
    }

    /// Flamegraph-compatible folded stacks, one line per (kind, class)
    /// cell: `sim;<kind>;<class> <value>`. With `wall` set the value is
    /// wall nanoseconds (feed to `flamegraph.pl`); otherwise it is the
    /// event count, which is deterministic and golden-safe.
    pub fn folded_stacks(&self, wall: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (kind, class, cell) in self.cells() {
            let v = if wall { cell.wall_ns } else { cell.events };
            let _ = writeln!(out, "sim;{kind};{} {v}", class.label());
        }
        out
    }

    /// Total handler dispatches across all cells.
    pub fn total_dispatches(&self) -> u64 {
        self.cells.iter().map(|(_, c)| c.events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_and_nodes_accumulate() {
        let mut p = Profiler::new(4);
        p.enable();
        p.ns_per_tick = 1.0; // pin the calibration so ticks == ns in assertions
        p.record_dispatch(NodeId(1), "zeus.proxy", EventClass::Deliver, 100);
        p.record_dispatch(NodeId(1), "zeus.proxy", EventClass::Deliver, 50);
        p.record_dispatch(NodeId(2), "zeus.observer", EventClass::Timer, 300);
        p.record_bytes_in(NodeId(1), 64);
        p.record_bytes_out(NodeId(2), 32);
        let hot = p.hot_actors(10);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].node, NodeId(2));
        assert_eq!(hot[0].kind, "zeus.observer");
        assert_eq!(hot[1].events, 2);
        assert_eq!(hot[1].bytes, 64);
        let busy = p.busy_actors(1);
        assert_eq!(busy[0].node, NodeId(1));
        let shares = p.subsystem_wall_shares();
        assert_eq!(shares[0].0, "zeus.observer");
        assert!((shares.iter().map(|s| s.1).sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn folded_stacks_are_sorted_and_stable() {
        let mut p = Profiler::new(2);
        p.enable();
        p.ns_per_tick = 1.0;
        p.record_dispatch(NodeId(0), "b", EventClass::Timer, 10);
        p.record_dispatch(NodeId(1), "a", EventClass::Deliver, 20);
        p.record_control(5);
        let folded = p.folded_stacks(false);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["sim;a;deliver 1", "sim;b;timer 1", "sim;driver;control 1"]
        );
        // Wall flavor carries nanoseconds instead of counts.
        assert!(p.folded_stacks(true).contains("sim;a;deliver 20"));
    }

    #[test]
    fn queue_occupancy_tracks_peak_and_mean() {
        let mut p = Profiler::new(1);
        p.enable();
        p.observe_queue_push(3);
        p.observe_queue_push(7);
        p.observe_queue_push(5);
        p.observe_queue_step(2);
        p.observe_queue_step(4);
        assert_eq!(p.queue_peak(), 7);
        assert_eq!(p.queue_mean(), 3.0);
    }
}
