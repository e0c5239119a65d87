//! `repro chaos`: a seeded fault-injection campaign over the Zeus
//! distribution pipeline.
//!
//! Each scenario deploys a full leader → observer → proxy tree on a
//! three-region fleet, generates a [`ChaosPlan`] from the scenario seed
//! (leader/follower/observer/proxy crash windows, symmetric and one-way
//! region partitions, and message drop/delay windows), keeps a write
//! workload flowing throughout, and checks four invariants at every
//! quiesce point:
//!
//! * **no-acked-write-lost** — a write committed at a leader survives every
//!   election (safety);
//! * **monotonic-applies** — replicas apply in zxid order and never diverge
//!   on a zxid's content (safety);
//! * **proxy-convergence** — after the final heal, every proxy converges to
//!   the leader's head values (liveness, with measured convergence time);
//! * **disk-cache-availability** — on-disk cached configs stay readable and
//!   never regress, even while their proxy is crashed (§3.4's fallback).
//!
//! Scenarios are deterministic per seed: a failing seed printed by the
//! campaign replays exactly with `repro chaos --seed <n>`.

use bytes::Bytes;
use simnet::chaos::{run_plan, ChaosConfig, ChaosPlan, Invariant, Verdict};
use simnet::prelude::*;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::invariants::{
    DiskCacheAvailability, MonotonicApplies, NoAckedWriteLost, ProxyConvergence,
};

/// Config paths the workload writes and every proxy subscribes to.
const PATHS: usize = 4;
/// One write every this many microseconds while the plan is active.
const WRITE_PERIOD_US: u64 = 400_000;

/// The outcome of one seeded scenario.
pub struct ScenarioOutcome {
    /// The scenario seed (replayable).
    pub seed: u64,
    /// Human-readable injected faults.
    pub faults: Vec<String>,
    /// Per-invariant verdicts.
    pub verdicts: Vec<Verdict>,
    /// Quiesce points at which the safety invariants ran.
    pub checkpoints: usize,
    /// Counters worth reporting (commits, elections, failovers, ...).
    pub counters: Vec<(&'static str, u64)>,
    /// End-to-end propagation percentiles from the `zeus.propagation_s`
    /// histogram, preformatted; `None` when no proxy applied any write.
    pub propagation: Option<String>,
}

impl ScenarioOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(Verdict::ok)
    }
}

/// Runs one seeded scenario to completion.
pub fn run_scenario(seed: u64) -> ScenarioOutcome {
    run_scenario_impl(seed, false).0
}

/// Runs one seeded scenario and exports every counter and histogram in
/// Prometheus text exposition format. Byte-deterministic per seed — this
/// is the snapshot `scripts/check.sh` diffs against checked-in goldens.
pub fn export_metrics(seed: u64) -> String {
    let (_, sim) = run_scenario_impl(seed, false);
    sim.metrics().export_prometheus()
}

fn run_scenario_impl(seed: u64, verbose: bool) -> (ScenarioOutcome, Sim) {
    let topo = Topology::symmetric(3, 2, 8);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 2,
        subscriptions: (0..PATHS).map(|i| format!("chaos/{i}")).collect(),
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);

    // Fault candidates cover every tier of the pipeline.
    let chaos_cfg = ChaosConfig {
        crash_candidates: vec![
            ("leader".into(), zeus.ensemble[0]),
            ("follower".into(), zeus.ensemble[1]),
            ("follower".into(), zeus.ensemble[3]),
            ("observer".into(), zeus.observers[0]),
            ("observer".into(), zeus.observers[zeus.observers.len() / 2]),
            ("proxy".into(), zeus.proxies[0]),
            ("proxy".into(), zeus.proxies[1]),
        ],
        regions: 3,
        ..ChaosConfig::default()
    };
    let plan = ChaosPlan::generate(seed, &chaos_cfg);

    // Write workload: spans warmup, the fault windows, and the last stretch
    // before the horizon, cycling over the subscribed paths. Routed to
    // whichever ensemble member leads when each write fires.
    let first = 1_000_000u64; // 1s
    let last = plan.horizon.as_micros().saturating_sub(2_000_000);
    let mut at = first;
    let mut seq = 0u64;
    while at < last {
        zeus.write_current(
            &mut sim,
            SimTime(at),
            &format!("chaos/{}", seq as usize % PATHS),
            Bytes::from(format!("v{seq}-s{seed}")),
        );
        at += WRITE_PERIOD_US;
        seq += 1;
    }

    let replicas: Vec<NodeId> = zeus
        .ensemble
        .iter()
        .chain(zeus.observers.iter())
        .copied()
        .collect();
    let mut invariants: Vec<Box<dyn Invariant>> = vec![
        Box::new(NoAckedWriteLost::new(zeus.ensemble.clone(), "chaos/")),
        Box::new(MonotonicApplies::new(replicas)),
        Box::new(ProxyConvergence::new(
            zeus.ensemble.clone(),
            zeus.proxies.clone(),
            "chaos/",
            // Convergence lag is measured from the moment the last fault
            // actually heals (not the padded plan horizon).
            plan.faults
                .iter()
                .map(|f| f.until)
                .max()
                .unwrap_or(plan.horizon),
        )),
        Box::new(DiskCacheAvailability::new(zeus.proxies.clone(), "chaos/")),
    ];

    let report = run_plan(
        &mut sim,
        &plan,
        &mut invariants,
        SimDuration::from_millis(500),
        SimDuration::from_secs(10),
    );

    let counters = [
        zeus::metrics::COMMITS,
        zeus::metrics::LEADER_ELECTIONS,
        zeus::metrics::LEADER_STEPDOWNS,
        zeus::metrics::REPROPOSED_ON_ELECTION,
        zeus::metrics::TRUNCATED_UNCOMMITTED,
        zeus::metrics::APPEND_RETRANSMITS,
        zeus::metrics::OBSERVER_GAP_RESYNCS,
        zeus::metrics::SYNC_REDIRECTS,
        zeus::metrics::PROXY_FAILOVERS,
        zeus::metrics::PROXY_FAILOVER_EXHAUSTED,
        simnet::stats::names::DROPPED_CHAOS,
        simnet::stats::names::DELAYED_CHAOS,
        simnet::stats::names::CHAOS_CLOCK_SKEWS,
        simnet::stats::names::CHAOS_STALLS,
        simnet::stats::names::STALL_DEFERRED,
    ]
    .iter()
    .map(|&name| (name, sim.metrics().counter(name)))
    .filter(|(_, v)| *v > 0)
    .collect();

    if verbose {
        eprintln!("final ensemble state (seed {seed}):");
        for &n in &zeus.ensemble {
            if let Some(a) = sim.actor::<zeus::EnsembleActor>(n) {
                let heads: Vec<String> = (0..PATHS)
                    .map(|i| {
                        let p = format!("chaos/{i}");
                        match a.store().get(&p) {
                            Some(w) => format!("{}", w.zxid),
                            None => "-".into(),
                        }
                    })
                    .collect();
                eprintln!(
                    "  {n}: up={} leader={} epoch={} committed={} contig={} applied={} heads=[{}]",
                    sim.is_up(n),
                    a.is_leader(),
                    a.epoch(),
                    a.committed(),
                    a.contiguous(),
                    a.store().last_applied(),
                    heads.join(" ")
                );
            }
        }
    }

    let propagation = sim
        .metrics()
        .histogram(zeus::metrics::PROPAGATION_S)
        .map(|h| {
            format!(
                "propagation n={} p50={:.3}s p90={:.3}s p99={:.3}s p999={:.3}s",
                h.count(),
                h.quantile_secs(0.50),
                h.quantile_secs(0.90),
                h.quantile_secs(0.99),
                h.quantile_secs(0.999),
            )
        });

    let outcome = ScenarioOutcome {
        seed,
        faults: plan.describe(),
        verdicts: report.verdicts,
        checkpoints: report.checkpoints,
        counters,
        propagation,
    };
    (outcome, sim)
}

fn verdict_line(v: &Verdict) -> String {
    match (&v.failure, &v.note) {
        (Some(msg), _) => {
            let at = v
                .failed_at
                .map(|t| format!(" at {:.1}s", t.as_secs_f64()))
                .unwrap_or_default();
            format!("  FAIL {}{at}: {msg}", v.name)
        }
        (None, Some(note)) => format!("  ok   {} ({note})", v.name),
        (None, None) => format!("  ok   {}", v.name),
    }
}

/// Runs `scenarios` seeded scenarios and summarizes their verdicts. Failing
/// seeds are listed for replay.
pub fn campaign(scenarios: u64) -> String {
    let mut out = format!(
        "chaos campaign: {scenarios} seeded scenarios over a 3-region fleet\n\
         (5-node ensemble, 12 observers, 31 proxies; crashes at every tier,\n\
         symmetric and one-way region partitions, message drop/delay,\n\
         clock skew, process stalls; 4 invariants per scenario)\n\n"
    );
    let mut failing: Vec<u64> = Vec::new();
    for seed in 1..=scenarios {
        let o = run_scenario(seed);
        let faults = if o.faults.is_empty() {
            "no faults drawn".to_string()
        } else {
            o.faults.join("; ")
        };
        let convergence = o
            .verdicts
            .iter()
            .find(|v| v.name == "proxy-convergence")
            .and_then(|v| v.note.clone())
            .map(|n| format!(" — {n}"))
            .unwrap_or_default();
        let propagation = o
            .propagation
            .as_deref()
            .map(|p| format!("\n          {p}"))
            .unwrap_or_default();
        if o.ok() {
            out.push_str(&format!(
                "seed {seed:>3}: OK   {faults}{convergence}{propagation}\n"
            ));
        } else {
            failing.push(seed);
            out.push_str(&format!("seed {seed:>3}: FAIL {faults}\n"));
            for v in o.verdicts.iter().filter(|v| !v.ok()) {
                out.push_str(&verdict_line(v));
                out.push('\n');
            }
        }
    }
    out.push_str(&format!(
        "\n{}/{scenarios} scenarios passed all 4 invariants\n",
        scenarios - failing.len() as u64
    ));
    if !failing.is_empty() {
        let seeds: Vec<String> = failing.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "FAILING SEEDS: {} — replay with `repro chaos --seed <n>`\n",
            seeds.join(" ")
        ));
    }
    out
}

/// Replays a single seed verbosely (fault schedule, per-invariant verdicts,
/// and protocol counters).
pub fn replay(seed: u64) -> String {
    let (o, _) = run_scenario_impl(seed, true);
    let mut out = format!(
        "chaos scenario seed {seed} — {}\n\ninjected faults:\n",
        if o.ok() {
            "all invariants held"
        } else {
            "INVARIANT VIOLATION"
        }
    );
    if o.faults.is_empty() {
        out.push_str("  (none drawn for this seed)\n");
    }
    for f in &o.faults {
        out.push_str(&format!("  {f}\n"));
    }
    out.push_str(&format!("\ninvariants ({} checkpoints):\n", o.checkpoints));
    for v in &o.verdicts {
        out.push_str(&verdict_line(v));
        out.push('\n');
    }
    out.push_str("\ncounters:\n");
    for (name, v) in &o.counters {
        out.push_str(&format!("  {name:<32} {v}\n"));
    }
    if let Some(p) = &o.propagation {
        out.push_str(&format!("\n{p}\n"));
    }
    out
}
