//! `repro canary`: the fleet-integrated safe-rollout pipeline under chaos.
//!
//! The canary service of §3.3 graduates from the in-process
//! [`configerator::canary::SyntheticFleet`] to the real (simulated)
//! distribution fleet. Each landed commit is *staged*, not shipped: the
//! new artifact is written to a per-rollout `canary/<name>/<k>` path that
//! only the designated canary servers subscribe to (scoped delivery —
//! the phase-gated blast radius), health samples from the canary and
//! control cohorts feed a [`configerator::rollout::Rollout`] state
//! machine, and only a chain of passing phase verdicts widens delivery:
//! canary cohort → cluster 0 → the fleet path every proxy watches.
//!
//! A failing phase auto-rolls-back: the revert lands through the
//! [`configerator::Mutator`] as a regular gitstore commit ("the canary
//! service rolls back the config change by updating the git repository",
//! §3.3), so the bad change *and* the verdict on it are durable history,
//! and the staged path is re-written with the previous good bytes so the
//! canary cohort heals.
//!
//! The whole pipeline runs under a seeded [`ChaosPlan`] (crashes at every
//! tier including a canary server, partitions, message drop/delay, clock
//! skew, stalls) with seeded cache drift, while a periodic drift audit
//! ([`zeus::audit`]) fingerprints the fleet against the leader's canonical
//! state and repairs divergence. The experiment gates on the §3.3
//! promises: injected-bad commits never reach a non-canary proxy and
//! always leave a revert in gitstore history; good commits fully converge
//! despite the chaos.

use configerator::metrics::health;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use configerator::landing::{LandingStrip, SourceDiff};
use configerator::metrics::canary as cnames;
use configerator::rollout::{
    land_source_revert, HealthPredicate, PhaseVerdict, Rollout, RolloutPhase, RolloutSpec,
};
use configerator::service::{ConfigeratorService, SOURCE_PREFIX};
use configerator::tailer::GitTailer;
use configerator::Mutator;
use simnet::chaos::{ChaosConfig, ChaosPlan};
use simnet::prelude::*;
use zeus::audit::{audit_proxies, repair, CanonicalSet, DriftKind};
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::proxy::ProxyActor;
use zeus::types::{Write, Zxid};

/// Distinct config names the commit workload cycles over.
const NAMES: usize = 2;
/// Commits pushed through the pipeline by default.
const COMMITS: usize = 6;
/// Commit indices that carry an injected-bad config (§6.4's error-spew
/// class: degraded immediately, at any scale). Never the first commit to
/// a name — a rollback needs previous content to revert to.
const BAD_COMMITS: &[usize] = &[2, 5];
/// First commit time and inter-commit spacing.
const FIRST_COMMIT_US: u64 = 1_000_000;
const COMMIT_PERIOD_US: u64 = 5_000_000;
/// Review + CI latency between submit and land.
const LANDING_DELAY_US: u64 = 300_000;
/// Git tailer poll period.
const TAILER_PERIOD_US: u64 = 500_000;
/// Cohort health-sampling (and verdict) period.
const SAMPLE_PERIOD_US: u64 = 250_000;
/// Lost-write reconciliation period (a proposal during a full-ensemble
/// outage is silently unroutable; the driver re-drives lagging writes).
const RECONCILE_PERIOD_US: u64 = 2_000_000;
/// Drift-audit sweep period.
const AUDIT_PERIOD_US: u64 = 2_000_000;
/// When seeded cache drift is injected. Off the 500 ms anti-entropy grid:
/// a seed landing exactly on a resubscribe tick is healed in the same
/// instant, which would make the run look like the faults never existed.
const DRIFT_SEED_US: u64 = 20_100_000;
/// Canary cohort size (phase 1's blast radius).
const CANARY_SERVERS: usize = 4;
/// Health samples per metric, per cohort, before a phase verdict.
const MIN_SAMPLES: u64 = 8;

fn name_of(i: usize) -> String {
    format!("roll/{}", i % NAMES)
}

fn source_of(i: usize) -> String {
    format!("roll/{}.cconf", i % NAMES)
}

fn value_of(i: usize) -> u64 {
    if BAD_COMMITS.contains(&i) {
        9000 + i as u64
    } else {
        10 + i as u64
    }
}

/// The compiled artifact bytes of commit `i` (`export_if_last(v)` → `v\n`).
fn artifact_of(i: usize) -> Bytes {
    Bytes::from(format!("{}\n", value_of(i)))
}

fn spec() -> RolloutSpec {
    let predicates = vec![
        HealthPredicate::MaxRelativeIncrease {
            metric: health::ERROR_RATE.into(),
            limit: 0.25,
        },
        HealthPredicate::MaxRelativeIncrease {
            metric: health::LATENCY_MS.into(),
            limit: 0.25,
        },
    ];
    RolloutSpec {
        phases: vec![
            RolloutPhase {
                name: format!("canary-{CANARY_SERVERS}"),
                min_samples: MIN_SAMPLES,
                predicates: predicates.clone(),
            },
            RolloutPhase {
                name: "cluster-0".into(),
                min_samples: MIN_SAMPLES,
                predicates,
            },
        ],
    }
}

/// Deterministic noise in `[-1, 1]` (splitmix-style avalanche) — health
/// samples must replay byte-identically per seed.
fn noise(seed: u64, node: u32, at_us: u64, salt: u64) -> f64 {
    let mut x = seed
        ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ at_us.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// One health sample: baseline with ±2% noise, degraded when the server
/// runs an injected-bad config (error rate +0.05, latency +80ms).
fn sample(metric: &str, bad: bool, seed: u64, node: u32, at_us: u64) -> f64 {
    match metric {
        m if m == health::ERROR_RATE => {
            0.01 * (1.0 + 0.02 * noise(seed, node, at_us, 1)) + if bad { 0.05 } else { 0.0 }
        }
        _ => 100.0 * (1.0 + 0.02 * noise(seed, node, at_us, 2)) + if bad { 80.0 } else { 0.0 },
    }
}

/// An in-flight staged rollout.
struct Active {
    rollout: Rollout,
    staged_path: String,
    staged: Bytes,
    source_path: String,
    /// Proxies subscribed to the staged path so far.
    audience: Vec<NodeId>,
}

/// Driver-side state shared across scheduled closures.
struct Pipeline {
    svc: ConfigeratorService,
    strip: LandingStrip,
    tailer: GitTailer,
    mutator: Mutator,
    active: Option<Active>,
    /// Pending rollouts, FIFO; a newer commit to a queued name supersedes
    /// its queued bytes in place.
    queue: VecDeque<(String, Bytes)>,
    staged_seq: u64,
    /// Artifact payloads known to be injected-bad.
    bad_payloads: BTreeSet<Bytes>,
    /// Tailer updates that must not start a rollout (landed reverts).
    suppress: BTreeMap<String, Bytes>,
    /// Promoted fleet state: `name → bytes` every proxy should converge to.
    fleet_desired: BTreeMap<String, Bytes>,
    /// Staged-path state: `path → (bytes, audience)`.
    staged_desired: BTreeMap<String, (Bytes, Vec<NodeId>)>,
    /// Blast-radius violations (bad bytes observed outside the canary
    /// cohort, or on a fleet path).
    violations: Vec<String>,
    /// Timestamped event log for the report.
    log: Vec<String>,
    /// Drift faults actually seeded.
    drift_seeded: usize,
    /// Findings of the final verification sweep.
    final_drift: usize,
}

impl Pipeline {
    fn event(&mut self, at: SimTime, msg: String) {
        self.log.push(format!("{:7.3}s  {msg}", at.as_secs_f64()));
    }
}

/// Pops the next queued rollout and stages it on the canary cohort.
fn start_next(s: &mut Sim, f: &mut Pipeline, dep: &ZeusDeployment, canary_cohort: &[NodeId]) {
    if f.active.is_some() {
        return;
    }
    let Some((name, data)) = f.queue.pop_front() else {
        return;
    };
    f.staged_seq += 1;
    let staged_path = format!("canary/{}/{}", name, f.staged_seq);
    let source_path = format!("{name}.cconf");
    dep.subscribe_cohort(s, &staged_path, canary_cohort);
    let now = s.now();
    dep.write_current(s, now, &staged_path, data.clone());
    f.staged_desired
        .insert(staged_path.clone(), (data.clone(), canary_cohort.to_vec()));
    f.event(
        now,
        format!(
            "rollout {}: {name} staged at {staged_path} (phase canary-{CANARY_SERVERS})",
            f.staged_seq
        ),
    );
    f.active = Some(Active {
        rollout: Rollout::new(&name, spec()),
        staged_path,
        staged: data,
        source_path,
        audience: canary_cohort.to_vec(),
    });
}

/// Run parameters (tests vary these; `repro canary` uses the defaults).
struct RunConfig {
    seed: u64,
    commits: usize,
    chaos: bool,
    drift: bool,
    /// Crash every canary-cohort server over this window (for the
    /// crash-mid-phase rollback test).
    crash_canaries: Option<(u64, u64)>,
}

/// Everything the report (and the tests) need from one run.
pub struct RunOutcome {
    /// Injected chaos faults, human-readable.
    pub faults: Vec<String>,
    /// Timestamped pipeline events.
    pub log: Vec<String>,
    /// Blast-radius violations (must be empty).
    pub violations: Vec<String>,
    /// Rollouts promoted to the fleet.
    pub promotions: u64,
    /// Rollouts rolled back.
    pub rollbacks: u64,
    /// Reverts found in gitstore history (author `mutator:canary`).
    pub reverts_in_git: usize,
    /// Bad commits injected.
    pub bad_commits: usize,
    /// Per-name final convergence of the promoted fleet state.
    pub converged: Vec<(String, bool)>,
    /// Drift faults seeded / left after the final sweep.
    pub drift_seeded: usize,
    /// Findings of the final verification sweep (must be 0).
    pub final_drift: usize,
    /// Counters worth reporting.
    pub counters: Vec<(&'static str, u64)>,
}

impl RunOutcome {
    /// Whether every gate held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
            && self.rollbacks as usize == self.bad_commits
            && self.reverts_in_git == self.bad_commits
            && self.converged.iter().all(|(_, c)| *c)
            && self.final_drift == 0
    }
}

fn run_impl(cfg: RunConfig) -> (RunOutcome, Sim) {
    let seed = cfg.seed;
    let topo = Topology::symmetric(3, 2, 12);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let dep_cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 2,
        subscriptions: (0..NAMES).map(name_of).collect(),
    };
    let zeus = ZeusDeployment::install(&mut sim, &dep_cfg);

    // Cohorts: phase 1 runs on a placement-diverse handful of proxies
    // (spread across regions and clusters so a single-rack blind spot
    // cannot mask a bad config), phase 2 widens to all of cluster 0 plus
    // the phase-1 canaries; every proxy outside both is control and must
    // never see staged bytes.
    let cluster0: Vec<NodeId> = zeus
        .proxies
        .iter()
        .copied()
        .filter(|&p| sim.topology().placement(p).cluster == simnet::ClusterId(0))
        .collect();
    assert!(cluster0.len() > CANARY_SERVERS);
    let canary_cohort =
        configerator::placement_diverse_cohort(sim.topology(), &zeus.proxies, CANARY_SERVERS);
    assert_eq!(canary_cohort.len(), CANARY_SERVERS);
    let mut phase2_cohort = cluster0.clone();
    for &p in &canary_cohort {
        if !phase2_cohort.contains(&p) {
            phase2_cohort.push(p);
        }
    }
    let control: Vec<NodeId> = zeus
        .proxies
        .iter()
        .copied()
        .filter(|p| !phase2_cohort.contains(p))
        .collect();
    assert!(control.len() >= 4);
    let all_proxies = zeus.proxies.clone();

    let mut horizon = SimTime(FIRST_COMMIT_US + cfg.commits as u64 * COMMIT_PERIOD_US + 20_000_000);
    let mut faults = Vec::new();
    if cfg.chaos {
        let chaos_cfg = ChaosConfig {
            crash_candidates: vec![
                ("leader".into(), zeus.ensemble[0]),
                ("follower".into(), zeus.ensemble[1]),
                ("observer".into(), zeus.observers[0]),
                ("canary-server".into(), canary_cohort[1]),
                ("control-proxy".into(), control[0]),
            ],
            regions: 3,
            ..ChaosConfig::default()
        };
        let plan = ChaosPlan::generate(seed, &chaos_cfg);
        faults = plan.describe();
        horizon = horizon.max(plan.horizon + SimDuration::from_secs(20));
        plan.apply(&mut sim);
    }
    if let Some((from, until)) = cfg.crash_canaries {
        horizon = horizon.max(SimTime(until + 15_000_000));
        for &p in &canary_cohort {
            sim.schedule(SimTime(from), move |s| s.crash(p));
            sim.schedule(SimTime(until), move |s| s.recover(p));
        }
    }

    let bad_payloads: BTreeSet<Bytes> = BAD_COMMITS
        .iter()
        .filter(|&&i| i < cfg.commits)
        .map(|&i| artifact_of(i))
        .collect();
    let bad_commits = bad_payloads.len();

    let front = Rc::new(RefCell::new(Pipeline {
        svc: ConfigeratorService::new(),
        strip: LandingStrip::new(),
        tailer: GitTailer::new(),
        mutator: Mutator::new("canary"),
        active: None,
        queue: VecDeque::new(),
        staged_seq: 0,
        bad_payloads,
        suppress: BTreeMap::new(),
        fleet_desired: BTreeMap::new(),
        staged_desired: BTreeMap::new(),
        violations: Vec::new(),
        log: Vec::new(),
        drift_seeded: 0,
        final_drift: 0,
    }));

    // Commit workload: engineers' diffs through the landing strip.
    for i in 0..cfg.commits {
        let at = SimTime(FIRST_COMMIT_US + i as u64 * COMMIT_PERIOD_US);
        let fr = Rc::clone(&front);
        sim.schedule(at, move |_| {
            let mut f = fr.borrow_mut();
            let changes: BTreeMap<String, Option<String>> = [(
                source_of(i),
                Some(format!("export_if_last({})", value_of(i))),
            )]
            .into_iter()
            .collect();
            let diff = SourceDiff::against(&f.svc, "alice", &format!("rev v{i}"), changes);
            f.strip.submit(diff);
        });
        let fr = Rc::clone(&front);
        sim.schedule(at + SimDuration::from_micros(LANDING_DELAY_US), move |s| {
            let mut f = fr.borrow_mut();
            let f = &mut *f;
            if let Some(Ok(_)) = f.strip.process_one(&mut f.svc) {
                let now = s.now();
                f.event(now, format!("landed rev v{i} ({})", name_of(i)));
            }
        });
    }

    // Tailer ticks: drained commits start rollouts instead of shipping
    // straight to the fleet — the staging gate of the pipeline.
    let mut tick = TAILER_PERIOD_US;
    while tick < horizon.0 {
        let fr = Rc::clone(&front);
        let dep = zeus.clone();
        let cohort = canary_cohort.clone();
        sim.schedule(SimTime(tick), move |s| {
            let mut f = fr.borrow_mut();
            let f = &mut *f;
            let updates = f.tailer.drain(&f.svc);
            for u in updates {
                if u.deleted {
                    continue;
                }
                if f.suppress.get(&u.name) == Some(&u.data) {
                    // The drained commit is the revert the canary service
                    // itself landed; re-staging it would loop forever.
                    f.suppress.remove(&u.name);
                    continue;
                }
                if f.fleet_desired.get(&u.name) == Some(&u.data) {
                    continue;
                }
                match f.queue.iter_mut().find(|(n, _)| *n == u.name) {
                    Some(entry) => entry.1 = u.data,
                    None => f.queue.push_back((u.name, u.data)),
                }
            }
            start_next(s, f, &dep, &cohort);
        });
        tick += TAILER_PERIOD_US;
    }

    // Sampling + verdict ticks: the canary service's heartbeat. Also the
    // continuous blast-radius invariant — checked every tick, not just at
    // the end, so a transient escape cannot hide.
    let mut tick = SAMPLE_PERIOD_US;
    while tick < horizon.0 {
        let fr = Rc::clone(&front);
        let dep = zeus.clone();
        let canary_c = canary_cohort.clone();
        let cluster_c = phase2_cohort.clone();
        let control_c = control.clone();
        let all = all_proxies.clone();
        sim.schedule(SimTime(tick), move |s| {
            let mut f = fr.borrow_mut();
            let f = &mut *f;
            // Blast-radius invariant: injected-bad bytes may exist only on
            // canary-cohort servers, and only under staged canary/ paths.
            for &p in &all {
                let Some(a) = s.actor::<ProxyActor>(p) else {
                    continue;
                };
                for w in a.disk_cache().entries() {
                    if f.bad_payloads.contains(&w.data)
                        && (!canary_c.contains(&p) || !w.path.starts_with("canary/"))
                    {
                        f.violations.push(format!(
                            "{:.3}s bad bytes escaped to {} at {}",
                            s.now().as_secs_f64(),
                            w.path,
                            p
                        ));
                    }
                }
            }
            if f.active.is_none() {
                return;
            }
            let now_us = s.now().0;
            let verdict = {
                let active = f.active.as_mut().unwrap();
                let cohort: &[NodeId] = if active.rollout.phase_index() == 0 {
                    &canary_c
                } else {
                    &cluster_c
                };
                for &p in cohort {
                    if !s.is_up(p) {
                        continue;
                    }
                    let Some(a) = s.actor::<ProxyActor>(p) else {
                        continue;
                    };
                    // Only servers actually running the staged bytes are
                    // canaries; a crashed or lagging server contributes no
                    // samples (and therefore can only delay the verdict,
                    // never fake a pass).
                    if a.read(&active.staged_path).map(|w| &w.data) != Some(&active.staged) {
                        continue;
                    }
                    let bad = f.bad_payloads.contains(&active.staged);
                    for m in [health::ERROR_RATE, health::LATENCY_MS] {
                        active
                            .rollout
                            .record_canary(m, sample(m, bad, seed, p.0, now_us));
                    }
                }
                for &p in &control_c {
                    if !s.is_up(p) {
                        continue;
                    }
                    for m in [health::ERROR_RATE, health::LATENCY_MS] {
                        active
                            .rollout
                            .record_control(m, sample(m, false, seed, p.0, now_us));
                    }
                }
                active.rollout.tick()
            };
            match verdict {
                PhaseVerdict::Wait => {}
                PhaseVerdict::Promote => {
                    let done = f.active.as_ref().unwrap().rollout.done.is_some();
                    if done {
                        let active = f.active.take().unwrap();
                        let name = active.rollout.name.clone();
                        s.metrics_mut().incr(cnames::PROMOTIONS, 1);
                        f.fleet_desired.insert(name.clone(), active.staged.clone());
                        let now = s.now();
                        dep.write_current(s, now, &name, active.staged.clone());
                        f.event(now, format!("{name}: promoted to fleet"));
                        start_next(s, f, &dep, &canary_c);
                    } else {
                        let active = f.active.as_mut().unwrap();
                        s.metrics_mut().incr(cnames::PHASE_PROMOTIONS, 1);
                        dep.subscribe_cohort(s, &active.staged_path, &cluster_c);
                        active.audience = cluster_c.clone();
                        let path = active.staged_path.clone();
                        let name = active.rollout.name.clone();
                        f.staged_desired.get_mut(&path).unwrap().1 = cluster_c.clone();
                        let now = s.now();
                        f.event(now, format!("{name}: promoted to phase cluster-0"));
                    }
                }
                PhaseVerdict::Rollback => {
                    let active = f.active.take().unwrap();
                    let name = active.rollout.name.clone();
                    let outcome = active.rollout.outcomes.last().unwrap();
                    let phase = outcome.name.clone();
                    let detail: Vec<String> = outcome
                        .details
                        .iter()
                        .filter(|(_, _, _, held)| !held)
                        .map(|(m, c, x, _)| format!("{m} canary={c:.4} control={x:.4}"))
                        .collect();
                    s.metrics_mut().incr(cnames::ROLLBACKS, 1);
                    let now = s.now();
                    f.event(
                        now,
                        format!("{name}: ROLLBACK in {phase} ({})", detail.join(", ")),
                    );
                    match land_source_revert(
                        &mut f.svc,
                        &f.mutator,
                        &active.source_path,
                        &format!("canary phase {phase} failed"),
                    ) {
                        Ok(_) => {
                            if let Some(prev) = f.fleet_desired.get(&name).cloned() {
                                // The revert recompiles the artifact back
                                // to the promoted bytes; suppress its
                                // tailer pickup and heal the cohort.
                                f.suppress.insert(name.clone(), prev.clone());
                                f.staged_desired.insert(
                                    active.staged_path.clone(),
                                    (prev.clone(), active.audience.clone()),
                                );
                                dep.write_current(s, now, &active.staged_path, prev);
                            }
                            f.event(now, format!("{name}: revert landed via mutator"));
                        }
                        Err(e) => f.violations.push(format!("revert of {name} failed: {e}")),
                    }
                    start_next(s, f, &dep, &canary_c);
                }
            }
        });
        tick += SAMPLE_PERIOD_US;
    }

    // Reconciliation ticks: a write proposed while the whole ensemble is
    // unreachable is silently unroutable; re-drive whatever some up node
    // still lacks.
    let mut tick = RECONCILE_PERIOD_US;
    while tick < horizon.0 {
        let fr = Rc::clone(&front);
        let dep = zeus.clone();
        let all = all_proxies.clone();
        sim.schedule(SimTime(tick), move |s| {
            let (fleet, staged) = {
                let f = fr.borrow();
                (f.fleet_desired.clone(), f.staged_desired.clone())
            };
            let lagging = |s: &Sim, nodes: &[NodeId], path: &str, bytes: &Bytes| {
                nodes.iter().any(|&p| {
                    s.is_up(p)
                        && s.actor::<ProxyActor>(p)
                            .is_some_and(|a| a.read(path).map(|w| &w.data) != Some(bytes))
                })
            };
            for (name, bytes) in fleet {
                if lagging(s, &all, &name, &bytes) {
                    let now = s.now();
                    dep.write_current(s, now, &name, bytes);
                }
            }
            for (path, (bytes, audience)) in staged {
                if lagging(s, &audience, &path, &bytes) {
                    let now = s.now();
                    dep.write_current(s, now, &path, bytes);
                }
            }
        });
        tick += RECONCILE_PERIOD_US;
    }

    // Drift-audit sweeps: fingerprint every proxy's cache against the
    // leader's canonical fleet state; repair divergence by targeted
    // resync.
    let mut tick = AUDIT_PERIOD_US;
    while tick < horizon.0 {
        let fr = Rc::clone(&front);
        let ensemble = zeus.ensemble.clone();
        let all = all_proxies.clone();
        sim.schedule(SimTime(tick), move |s| {
            let Some(canon) = CanonicalSet::from_leader(s, &ensemble, "roll/") else {
                return;
            };
            let findings = audit_proxies(s, &all, &canon);
            if findings.is_empty() {
                return;
            }
            let by_kind = |k: DriftKind| findings.iter().filter(|f| f.kind == k).count();
            let (missing, stale, corrupt) = (
                by_kind(DriftKind::Missing),
                by_kind(DriftKind::Stale),
                by_kind(DriftKind::Corrupt),
            );
            repair(s, &findings);
            let now = s.now();
            fr.borrow_mut().event(
                now,
                format!(
                    "audit: repaired {} drifted entries (missing={missing} stale={stale} corrupt={corrupt})",
                    findings.len()
                ),
            );
        });
        tick += AUDIT_PERIOD_US;
    }

    // Seeded drift: silent cache rot on control proxies mid-run — the
    // audit, not the subscription protocol, must catch and repair it.
    if cfg.drift {
        let fr = Rc::clone(&front);
        let targets = [control[1], control[2], control[3]];
        sim.schedule(SimTime(DRIFT_SEED_US), move |s| {
            let mut seeded = 0;
            if let Some(a) = s.actor_mut::<ProxyActor>(targets[0]) {
                if a.disk_cache_mut()
                    .seed_corruption(&name_of(0), Bytes::from_static(b"rotten"))
                {
                    seeded += 1;
                }
            }
            if let Some(a) = s.actor_mut::<ProxyActor>(targets[1]) {
                if a.disk_cache_mut().seed_missing(&name_of(1)) {
                    seeded += 1;
                }
            }
            if let Some(a) = s.actor_mut::<ProxyActor>(targets[2]) {
                a.disk_cache_mut().seed_stale(Write {
                    zxid: Zxid {
                        epoch: 1,
                        counter: 1,
                    },
                    path: name_of(0),
                    data: Bytes::from_static(b"ancient"),
                    origin: SimTime::ZERO,
                    trace: None,
                });
                seeded += 1;
            }
            let now = s.now();
            let mut f = fr.borrow_mut();
            f.drift_seeded = seeded;
            f.event(
                now,
                format!(
                    "seeded {seeded} drift faults (corrupt, missing, stale) on control proxies"
                ),
            );
        });
    }

    // Final verification sweep, just before the horizon.
    {
        let fr = Rc::clone(&front);
        let ensemble = zeus.ensemble.clone();
        let all = all_proxies.clone();
        sim.schedule(SimTime(horizon.0 - 100_000), move |s| {
            let mut f = fr.borrow_mut();
            match CanonicalSet::from_leader(s, &ensemble, "roll/") {
                Some(canon) => {
                    let findings = audit_proxies(s, &all, &canon);
                    f.final_drift = findings.len();
                    for fd in &findings {
                        let now = s.now();
                        f.event(now, format!("FINAL DRIFT: {}", fd.describe()));
                    }
                }
                None => f.violations.push("no leader at final sweep".into()),
            }
        });
    }

    sim.run_until(horizon);

    // Post-run gates: convergence of the promoted fleet state, and the
    // durable revert trail in gitstore.
    let f = front.borrow();
    let converged: Vec<(String, bool)> = f
        .fleet_desired
        .iter()
        .map(|(name, bytes)| (name.clone(), zeus.coverage(&sim, name, bytes) == 1.0))
        .collect();
    let mut reverts_in_git = 0usize;
    for i in 0..NAMES {
        let path = format!("{SOURCE_PREFIX}{}", source_of(i));
        let repo = f.svc.repo().repo(f.svc.repo().route(&path));
        if let Some(head) = repo.head() {
            for id in repo.log(head).unwrap_or_default() {
                let c = repo.commit_info(id).unwrap();
                if c.author == f.mutator.author()
                    && c.message.starts_with(&format!("Revert {}", source_of(i)))
                {
                    reverts_in_git += 1;
                }
            }
        }
    }
    let counters = [
        cnames::PROMOTIONS,
        cnames::ROLLBACKS,
        cnames::PHASE_PROMOTIONS,
        zeus::metrics::COMMITS,
        zeus::metrics::LEADER_ELECTIONS,
        zeus::metrics::PROXY_FAILOVERS,
        zeus::metrics::PROXY_RESYNCS,
        zeus::metrics::audit::DRIFT_MISSING,
        zeus::metrics::audit::DRIFT_STALE,
        zeus::metrics::audit::DRIFT_CORRUPT,
        zeus::metrics::audit::REPAIRS,
        simnet::stats::names::DROPPED_CHAOS,
        simnet::stats::names::CHAOS_CLOCK_SKEWS,
        simnet::stats::names::CHAOS_STALLS,
    ]
    .iter()
    .map(|&n| (n, sim.metrics().counter(n)))
    .filter(|(_, v)| *v > 0)
    .collect();

    let outcome = RunOutcome {
        faults,
        log: f.log.clone(),
        violations: f.violations.clone(),
        promotions: sim.metrics().counter(cnames::PROMOTIONS),
        rollbacks: sim.metrics().counter(cnames::ROLLBACKS),
        reverts_in_git,
        bad_commits,
        converged,
        drift_seeded: f.drift_seeded,
        final_drift: f.final_drift,
        counters,
    };
    drop(f);
    (outcome, sim)
}

/// `repro canary`: one seeded rollout campaign under chaos with seeded
/// drift, reported deterministically (golden-gated by `scripts/check.sh`).
pub fn report(seed: u64) -> String {
    let (o, _) = run_impl(RunConfig {
        seed,
        commits: COMMITS,
        chaos: true,
        drift: true,
        crash_canaries: None,
    });
    let mut out = format!(
        "canary rollout campaign — seed {seed}\n\
         pipeline: landing strip → gitstore → tailer → staged canary write →\n\
         phase-gated promotion (placement-diverse canary-{CANARY_SERVERS} → cluster-0 → fleet) with auto-rollback\n\
         fleet: 3 regions × 2 clusters × 12 servers; {COMMITS} commits, {} injected-bad\n\n",
        o.bad_commits
    );
    out.push_str("injected chaos:\n");
    if o.faults.is_empty() {
        out.push_str("  (none drawn for this seed)\n");
    }
    for fl in &o.faults {
        out.push_str(&format!("  {fl}\n"));
    }
    out.push_str("\nevents:\n");
    for l in &o.log {
        out.push_str(&format!("  {l}\n"));
    }
    out.push_str("\ncounters:\n");
    for (n, v) in &o.counters {
        out.push_str(&format!("  {n:<28} {v}\n"));
    }
    out.push_str("\ngates:\n");
    out.push_str(&format!(
        "  containment: {} — {} blast-radius violations; {}/{} bad commits rolled back, {} reverts in gitstore\n",
        if o.violations.is_empty()
            && o.rollbacks as usize == o.bad_commits
            && o.reverts_in_git == o.bad_commits
        {
            "PASS"
        } else {
            "FAIL"
        },
        o.violations.len(),
        o.rollbacks,
        o.bad_commits,
        o.reverts_in_git,
    ));
    for v in &o.violations {
        out.push_str(&format!("    {v}\n"));
    }
    out.push_str(&format!(
        "  convergence: {} — {}\n",
        if !o.converged.is_empty() && o.converged.iter().all(|(_, c)| *c) {
            "PASS"
        } else {
            "FAIL"
        },
        o.converged
            .iter()
            .map(|(n, c)| format!("{n} {}", if *c { "ok" } else { "LAGGING" }))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str(&format!(
        "  drift repair: {} — {} seeded, {} left at final sweep\n",
        if o.drift_seeded > 0 && o.final_drift == 0 {
            "PASS"
        } else {
            "FAIL"
        },
        o.drift_seeded,
        o.final_drift,
    ));
    out.push_str(&format!(
        "\noverall: {}\n",
        if o.ok() && o.drift_seeded > 0 {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_commits_roll_back_with_reverts_in_history() {
        let (o, _) = run_impl(RunConfig {
            seed: 3,
            commits: COMMITS,
            chaos: false,
            drift: false,
            crash_canaries: None,
        });
        assert_eq!(o.bad_commits, 2);
        assert_eq!(o.rollbacks, 2, "every injected-bad commit rolls back");
        assert_eq!(o.reverts_in_git, 2, "every rollback lands a durable revert");
        assert_eq!(o.promotions, 4, "every good commit promotes");
        assert!(o.violations.is_empty(), "violations: {:?}", o.violations);
        assert!(
            !o.converged.is_empty() && o.converged.iter().all(|(_, c)| *c),
            "good commits must fully converge: {:?}",
            o.converged
        );
    }

    #[test]
    fn canary_crash_mid_phase_neither_promotes_nor_wedges() {
        // Crash the whole canary cohort right after staging, before any
        // health sample exists. The phase must sit in Wait (no samples can
        // only delay a verdict, never fake one) and complete after the
        // cohort recovers.
        let crash_at = 1_550_000;
        let recover_at = 8_000_000;
        let (o, _) = run_impl(RunConfig {
            seed: 5,
            commits: 1,
            chaos: false,
            drift: false,
            crash_canaries: Some((crash_at, recover_at)),
        });
        assert_eq!(o.rollbacks, 0);
        assert_eq!(o.promotions, 1, "rollout completes after recovery");
        let promoted = o
            .log
            .iter()
            .find(|l| l.contains("promoted to fleet"))
            .expect("promotion logged");
        let t: f64 = promoted
            .trim_start()
            .split('s')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(
            t > recover_at as f64 / 1e6,
            "promotion at {t}s must wait for cohort recovery ({promoted})"
        );
        assert!(o.violations.is_empty());

        // Control: without the crash the same rollout promotes well before
        // the recovery time — the delay above is the crash, not slack.
        let (fast, _) = run_impl(RunConfig {
            seed: 5,
            commits: 1,
            chaos: false,
            drift: false,
            crash_canaries: None,
        });
        let promoted = fast
            .log
            .iter()
            .find(|l| l.contains("promoted to fleet"))
            .unwrap();
        let t: f64 = promoted
            .trim_start()
            .split('s')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(t < recover_at as f64 / 1e6);
    }

    #[test]
    fn seeded_drift_is_detected_and_repaired() {
        let (o, _) = run_impl(RunConfig {
            seed: 2,
            commits: 4,
            chaos: false,
            drift: true,
            crash_canaries: None,
        });
        assert_eq!(o.drift_seeded, 3, "corrupt + missing + stale all seeded");
        assert_eq!(o.final_drift, 0, "final sweep must be clean");
        let repaired = o
            .counters
            .iter()
            .find(|(n, _)| *n == zeus::metrics::audit::DRIFT_CORRUPT)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(repaired >= 1, "the corrupt entry is audit-repaired");
        assert!(o.ok(), "violations: {:?}", o.violations);
    }

    #[test]
    fn report_is_deterministic_per_seed() {
        assert_eq!(report(1), report(1));
    }
}
