//! Shared measurement plumbing: the in-memory span recorder of the traced
//! run, order statistics, the metric table, and the output-check tally.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use simnet::stats::percentile_sorted;

/// Spans beyond this many are still aggregated but not kept for the trace
/// file (a read-path run would otherwise hold millions).
const KEPT_SPANS: usize = 200_000;

/// One recorded span: a public call into a layer (or a batch of `calls`
/// identical calls), timed on the host clock.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (commit, round, scenario) the span belongs to.
    pub op: u64,
    pub calls: u64,
}

/// Per-name totals over every span recorded, kept or not.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    calls: u64,
    child_ns: u64,
    /// Index in `spans`, when the span is being kept.
    slot: Option<u32>,
}

/// The span recorder. Disabled (the untraced run), or between the traced
/// rounds of a traced run, every call is one branch and no clock read.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts round `round` of a path. In the traced run odd rounds record
    /// spans and even rounds do not, so the two can be compared; returns
    /// whether this round records.
    pub fn start_round(&mut self, round: usize) -> bool {
        self.recording = self.enabled && round % 2 == 1;
        self.recording
    }

    /// Records from here on if this is the traced run (the replays after
    /// the last round).
    pub fn resume(&mut self) {
        self.recording = self.enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span covering `calls` calls of `name` for operation `op`.
    pub fn enter(&mut self, name: &'static str, op: u64, calls: u64) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        let slot = (self.spans.len() < KEPT_SPANS).then(|| {
            let parent = self.open.iter().rev().find_map(|o| o.slot);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
                calls,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            start_ns,
            calls,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("exit without enter");
        let dur = end_ns - o.start_ns;
        if let Some(slot) = o.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(o.name).or_default();
        t.spans += 1;
        t.calls += o.calls;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
    }

    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean ns per call of `name` (0 if never recorded).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.calls == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.calls as f64
        }
    }

    /// The trace file: kept spans plus per-name totals with self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"totals\":{{"
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"spans\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.spans, t.calls, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Rank-interpolated percentile of an unsorted slice (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&s, p)
}

/// The rate a run reports from its rounds' rates: their upper quartile.
/// Another tenant of the host slows this process by up to a half for
/// seconds at a time; the median of the rounds then sits in whichever
/// state covered more of the run (it spread 16–26% over ten runs of one
/// seed when the upper quartile spread 7–12%), and the fastest rounds are
/// what the code does undisturbed.
pub fn fast_quartile(rates: &[f64]) -> f64 {
    percentile(rates, 75.0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metric values. Units live with the names, in `main.rs`'s tables.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(r) => r.1 = value,
            None => self.rows.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    pub fn merge(&mut self, other: Metrics) {
        for (n, v) in other.rows {
            self.put(n, v);
        }
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation (also counted as attempted).
    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg());
        }
    }

    /// One attempted operation that failed iff `cond` is false.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if cond {
            self.ok(1);
        } else {
            self.fail(msg);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// How much of a workload's shape a run uses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// `--smoke`: about a twentieth of the size, the fewest rounds.
    Smoke,
    /// The smoke size with enough rounds for a median and a p95: what a
    /// workload runs of the paths that are not its own (see `main.rs`).
    Probe,
}

/// What one path contributed to a run.
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub tally: Tally,
    /// Median time of the path's set-up (everything before timing starts).
    pub setup_s: f64,
    /// The path's main wall metric over its untraced and its traced
    /// rounds, for `trace_overhead_pct`.
    pub untraced_rate: f64,
    pub traced_rate: f64,
}

/// One path being measured, a round at a time, so that `main.rs` can spread
/// the rounds of the probes over the run.
pub trait Rounds {
    fn step(&mut self, tr: &mut Tracer);
    /// Rounds done so far.
    fn rounds(&self) -> usize;
    /// Rounds always run, whatever the time budget (the exact per-layer
    /// counts are taken over these).
    fn min_rounds(&self) -> usize;
    fn finish(self: Box<Self>, tr: &mut Tracer) -> Outcome;
}

/// A measured path's set-up is repeated and its median reported: at least
/// three times and for at least [`SETUP_MIN_S`] (a 10 ms build runs 50
/// times), but a build is not started once [`SETUP_MAX_S`] have gone into
/// them.
const SETUP_MAX_S: f64 = 3.0;
const SETUP_MIN_S: f64 = 0.5;

/// Builds `build` (repeatedly if `repeat`, keeping the last) and returns
/// the median build time.
pub fn timed_setup<T>(repeat: bool, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let began = Instant::now();
    loop {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        let spent = began.elapsed().as_secs_f64();
        if !repeat || (times.len() >= 3 && spent >= SETUP_MIN_S) || spent >= SETUP_MAX_S {
            return (built, median(&times));
        }
    }
}

/// Exact metrics of identical rounds: the first round's values are kept and
/// every later round must reproduce them (the determinism guard).
#[derive(Default)]
pub struct ExactRounds {
    first: Vec<(&'static str, f64)>,
    rounds: u64,
}

impl ExactRounds {
    /// Offers one round's exact values; a mismatch with the first round is
    /// a failed operation naming the metric.
    pub fn offer(&mut self, round: Vec<(&'static str, f64)>, tally: &mut Tally) {
        if self.rounds == 0 {
            self.first = round;
        } else {
            for (a, b) in self.first.iter().zip(&round) {
                if a.0 != b.0 || a.1.to_bits() != b.1.to_bits() {
                    let (name, want, got, n) = (a.0, a.1, b.1, self.rounds);
                    tally.fail(|| {
                        format!("determinism: {name} was {want} in round 0 but {got} in round {n}")
                    });
                }
            }
        }
        self.rounds += 1;
    }

    pub fn into_metrics(self, m: &mut Metrics) {
        for (n, v) in self.first {
            m.put(n, v);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
