//! `repro laser`: the distributed Laser serving tier under faults —
//! hedged versus unhedged reads, stale-cache degradation, and atomic bulk
//! generation flips.
//!
//! The stack under test is the full pipeline: Gatekeeper `laser()`
//! restraints evaluated on frontend actors whose [`LaserClient`] routes
//! gets to sharded replica groups; stream datasets ingested through the
//! Zeus observer feed; bulk datasets shipped P2P via PackageVessel and
//! activated by an atomic generation flip. The sweep crosses query rate
//! with a fault menu — replica crash, one-way (asymmetric) partition, and
//! a slow replica — and A/Bs hedged against unhedged reads in each cell.
//!
//! Two properties are load-bearing and asserted by tests as well as
//! reported: no multi-key probe ever observes a mix of two bulk
//! generations (activation is atomic end to end), and no Gatekeeper
//! `laser()` evaluation fails outright while a single replica is down
//! (hedging and the stale-cache fallback absorb the outage). The chaos
//! section re-checks both under a seeded random fault schedule that
//! includes one-way partitions. Output is byte-deterministic per seed
//! (`scripts/check.sh` diffs it against a golden).

use gatekeeper::prelude::{Project, RestraintKind, RestraintSpec, Rule, Runtime, UserContext};
use laser::client::{ClientConfig, Completion, LaserClient, Served, TAG_BASE};
use laser::deploy::{LaserDeployConfig, LaserDeployment};
use laser::msg::LaserMsg;
use laser::server::LaserShardServer;
use laser::{feed, metrics as lm, ResolvedBackend};
use packagevessel::deploy::PvDeployment;
use packagevessel::storage::{PeerPolicy, StorageActor};
use simnet::chaos::{run_plan, ChaosConfig, ChaosPlan, Invariant};
use simnet::prelude::*;
use zeus::deploy::{DeployConfig, ZeusDeployment};

/// Per-frontend query rates swept (queries per second).
const QPS: &[u64] = &[40, 160];
/// Users the gating workload draws from.
const USERS: u64 = 64;
/// Keys in the bulk dataset.
const BULK_KEYS: usize = 64;
/// Stream dataset refresh period.
const STREAM_EVERY_US: u64 = 300_000;
/// Multi-key generation-probe period per frontend.
const PROBE_EVERY_US: u64 = 250_000;
/// Fault injection window.
const FAULT_AT_US: u64 = 3_000_000;
const FAULT_HEAL_US: u64 = 6_500_000;
/// Slow-replica response delay — far above the ~80 ms cross-region RTT,
/// so an unhedged read is pinned at it while a hedged one escapes.
const SLOW_DELAY_US: u64 = 250_000;
const SLOW_HEAL_US: u64 = 8_000_000;
/// Run horizon.
const HORIZON_US: u64 = 9_500_000;
/// Seeded sub-runs merged per cell (tail quantiles of one run hinge on a
/// handful of fault-window queries; merging stabilizes them).
const SUBRUNS: u64 = 3;

/// The fault injected into a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    None,
    /// Crash one replica of shard 0 for the fault window.
    Crash,
    /// One-way partition out of the crashed-replica region: requests still
    /// arrive, replies vanish.
    OneWay,
    /// The shard-0 primary answers after an extra [`SLOW_DELAY_US`].
    Slow,
}

impl FaultMode {
    fn label(self) -> &'static str {
        match self {
            FaultMode::None => "none",
            FaultMode::Crash => "crash",
            FaultMode::OneWay => "oneway",
            FaultMode::Slow => "slow",
        }
    }
}

/// Host-actor timer tags (client tags live at [`TAG_BASE`] and above).
const TAG_QUERY: u64 = 1;
const TAG_PROBE: u64 = 2;

/// A frontend: evaluates Gatekeeper checks against values resolved through
/// the Laser client, and fires multi-key generation probes.
struct Frontend {
    client: LaserClient,
    rt: Runtime<ResolvedBackend>,
    query_every: SimDuration,
    start_delay: SimDuration,
    started: bool,
    probe_idx: u64,
    /// Gatekeeper evaluations completed / passed.
    evals: u64,
    passes: u64,
    /// Evaluations whose Laser query failed outright (no fresh reply, no
    /// cache cover) — the acceptance criterion counts these.
    failed_evals: u64,
    /// Multi-key probes checked / observed mixing two bulk generations.
    probes: u64,
    mixed: u64,
}

impl Frontend {
    fn new(cfg: ClientConfig, query_every: SimDuration, start_delay: SimDuration) -> Frontend {
        let mut rt = Runtime::new(ResolvedBackend::new());
        rt.update_project(Project::new(
            "exp",
            vec![Rule::new(
                vec![RestraintSpec::of(RestraintKind::Laser {
                    dataset: "gk".into(),
                    project: "proj".into(),
                    threshold: 0.5,
                })],
                1.0,
            )],
        ));
        Frontend {
            client: LaserClient::new(cfg),
            rt,
            query_every,
            start_delay,
            started: false,
            probe_idx: 0,
            evals: 0,
            passes: 0,
            failed_evals: 0,
            probes: 0,
            mixed: 0,
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, c: Completion) {
        if c.dataset == "gk" {
            if c.served == Served::Failed {
                self.failed_evals += 1;
                ctx.metrics().incr("laser.exp.failed_evals", 1);
            } else {
                for (k, v) in c.keys.iter().zip(&c.values) {
                    self.rt.laser_mut().set("gk", k, *v);
                }
            }
            let Some(user) = c.keys[0]
                .strip_prefix("proj-")
                .and_then(|u| u.parse::<u64>().ok())
            else {
                return;
            };
            let user_ctx = UserContext::with_id(user);
            self.evals += 1;
            if self.rt.check("exp", &user_ctx) {
                self.passes += 1;
            }
        } else if c.dataset == "ranker" {
            if c.served == Served::Failed {
                return;
            }
            self.probes += 1;
            let floors: Vec<u64> = c.values.iter().flatten().map(|v| *v as u64).collect();
            if floors.windows(2).any(|w| w[0] != w[1]) {
                self.mixed += 1;
                ctx.metrics().incr("laser.exp.mixed_generation", 1);
            }
        }
    }
}

impl simnet::Actor for Frontend {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.started {
            return;
        }
        self.started = true;
        ctx.set_timer(self.start_delay, TAG_QUERY);
        ctx.set_timer(self.start_delay + SimDuration(800_000), TAG_PROBE);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if let Ok(m) = msg.downcast::<LaserMsg>() {
            if let Some(c) = self.client.on_message(ctx, from, *m) {
                self.complete(ctx, c);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag >= TAG_BASE {
            if let Some(c) = self.client.on_timer(ctx, tag) {
                self.complete(ctx, c);
            }
            return;
        }
        match tag {
            TAG_QUERY => {
                let user = ctx.rng().gen_range(0..USERS);
                let key = format!("proj-{user}");
                if let Some(c) = self.client.query(ctx, "gk", vec![key], None) {
                    self.complete(ctx, c);
                }
                ctx.set_timer(self.query_every, TAG_QUERY);
            }
            TAG_PROBE => {
                let start = (self.probe_idx * 4) as usize % BULK_KEYS;
                let keys: Vec<String> = (0..4)
                    .map(|i| format!("item-{}", (start + i) % BULK_KEYS))
                    .collect();
                self.probe_idx += 1;
                if let Some(c) = self.client.query(ctx, "ranker", keys, None) {
                    self.complete(ctx, c);
                }
                ctx.set_timer(SimDuration(PROBE_EVERY_US), TAG_PROBE);
            }
            _ => {}
        }
    }
}

use rand::Rng;

/// Everything installed for one run.
struct Stack {
    zeus: ZeusDeployment,
    laser: LaserDeployment,
    frontends: Vec<NodeId>,
    storage: NodeId,
}

/// Installs Zeus, the Laser tier, a PackageVessel storage node, and one
/// frontend per region, carving all roles out of the Zeus proxy pool.
fn install(sim: &mut Sim, qps: u64, hedge: bool) -> Stack {
    let zeus = ZeusDeployment::install(
        sim,
        &DeployConfig {
            ensemble_size: 5,
            observers_per_cluster: 1,
            subscriptions: Vec::new(),
        },
    );
    let topo = sim.topology().clone();
    let mut by_region: Vec<Vec<NodeId>> = vec![Vec::new(); topo.num_regions()];
    for &p in &zeus.proxies {
        by_region[topo.placement(p).region.0 as usize].push(p);
    }
    let storage = by_region[0].remove(0);
    let frontends: Vec<NodeId> = by_region.iter_mut().map(|r| r.remove(0)).collect();
    let candidates: Vec<NodeId> = by_region.into_iter().flatten().collect();

    sim.add_actor(
        storage,
        Box::new(StorageActor::new(PeerPolicy::LocalityAware)),
    );
    let laser = LaserDeployment::install(
        sim,
        &LaserDeployConfig {
            shards: 4,
            replicas: 2,
            candidates,
            observers: zeus.observers.clone(),
            stream_datasets: vec!["gk".into()],
            bulk_datasets: vec!["ranker".into()],
            memory_cap: 4096,
            pv_window: 4,
        },
    );
    for (i, &f) in frontends.iter().enumerate() {
        let region = topo.placement(f).region;
        let mut cfg = ClientConfig::new(laser.map.clone(), region);
        cfg.hedge = hedge;
        sim.add_actor(
            f,
            Box::new(Frontend::new(
                cfg,
                SimDuration(1_000_000 / qps),
                SimDuration(300_000 + i as u64 * 17_000),
            )),
        );
    }
    Stack {
        zeus,
        laser,
        frontends,
        storage,
    }
}

/// Schedules the stream-refresh and bulk-publish workload.
fn schedule_workload(sim: &mut Sim, stack: &Stack) {
    // Stream dataset: full-state refresh of every user's score. Values
    // rotate so roughly half the users pass the 0.5 threshold at any time.
    let path = feed::stream_path("gk");
    let mut at = 200_000u64;
    let mut round = 0u64;
    while at < HORIZON_US {
        let entries: Vec<(String, f64)> = (0..USERS)
            .map(|u| {
                let v = ((u * 7 + round * 13) % 100) as f64 / 100.0;
                (format!("proj-{u}"), v)
            })
            .collect();
        stack
            .zeus
            .write_current(sim, SimTime(at), &path, feed::encode_entries(&entries));
        at += STREAM_EVERY_US;
        round += 1;
    }
    // Bulk dataset: three generations. Every value's integer part is the
    // generation, which is what the probes check for mixing. Content goes
    // to the storage node once per generation; the metadata write is
    // re-announced every 500 ms (a publisher that retries until its write
    // lands — a one-shot proposal during an election window would vanish,
    // and unlike the full-state stream feed nothing else would cover it).
    // Servers deduplicate repeats by version.
    let config = feed::bulk_path("ranker");
    let publishes: Vec<(u64, u64)> = vec![(1, 500_000), (2, 4_000_000), (3, 7_000_000)];
    let metas: Vec<(u64, packagevessel::types::BulkMeta)> = publishes
        .iter()
        .map(|&(version, at)| {
            let entries: Vec<(String, f64)> = (0..BULK_KEYS)
                .map(|i| (format!("item-{i}"), version as f64 + i as f64 / 1000.0))
                .collect();
            let data = bytes::Bytes::from(feed::encode_entries(&entries));
            let meta = PvDeployment::publish_bytes(
                sim,
                stack.storage,
                &config,
                version,
                data,
                256,
                SimTime(at),
            );
            (at, meta)
        })
        .collect();
    let mut at = 500_000u64;
    while at < HORIZON_US {
        let newest = metas
            .iter()
            .rfind(|(pub_at, _)| *pub_at <= at)
            .map(|(_, m)| m);
        if let Some(meta) = newest {
            stack
                .zeus
                .write_current(sim, SimTime(at), &config, feed::encode_bulk_meta(meta));
        }
        at += 500_000;
    }
}

/// Injects the cell's fault. The victim is always replica 0 of shard 0
/// (the primary that two of the three frontends prefer).
fn schedule_fault(sim: &mut Sim, stack: &Stack, fault: FaultMode) {
    let victim = stack.laser.map.replicas(0)[0];
    let victim_region = sim.topology().placement(victim).region;
    match fault {
        FaultMode::None => {}
        FaultMode::Crash => {
            sim.schedule(SimTime(FAULT_AT_US), move |s| s.crash(victim));
            sim.schedule(SimTime(FAULT_HEAL_US), move |s| s.recover(victim));
        }
        FaultMode::OneWay => {
            let to = RegionId((victim_region.0 + 1) % sim.topology().num_regions() as u16);
            sim.schedule(SimTime(FAULT_AT_US), move |s| {
                s.partition_oneway(victim_region, to);
            });
            sim.schedule(SimTime(FAULT_HEAL_US), move |s| {
                s.heal_oneway(victim_region, to);
            });
        }
        FaultMode::Slow => {
            sim.schedule(SimTime(FAULT_AT_US), move |s| {
                if let Some(srv) = s.actor_mut::<LaserShardServer>(victim) {
                    srv.set_response_delay(SimDuration(SLOW_DELAY_US));
                }
            });
            sim.schedule(SimTime(SLOW_HEAL_US), move |s| {
                if let Some(srv) = s.actor_mut::<LaserShardServer>(victim) {
                    srv.set_response_delay(SimDuration::ZERO);
                }
            });
        }
    }
}

/// One cell's merged observables.
#[derive(Debug, Default, Clone)]
struct Totals {
    queries: u64,
    cache: u64,
    hedges: u64,
    hedge_wins: u64,
    stale: u64,
    failed: u64,
    evals: u64,
    passes: u64,
    failed_evals: u64,
    probes: u64,
    mixed: u64,
    /// Lowest activated bulk generation across shard servers at the end.
    min_bulk: u64,
    p50_s: Option<f64>,
    p99_s: Option<f64>,
}

fn run_once(seed: u64, qps: u64, fault: FaultMode, hedge: bool) -> (Metrics, Totals) {
    let topo = Topology::symmetric(3, 2, 6);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let stack = install(&mut sim, qps, hedge);
    schedule_workload(&mut sim, &stack);
    schedule_fault(&mut sim, &stack, fault);
    sim.run_until(SimTime(HORIZON_US));

    let mut t = Totals {
        min_bulk: u64::MAX,
        ..Totals::default()
    };
    for &f in &stack.frontends {
        let fe: &Frontend = sim.actor(f).expect("frontend installed");
        let s = fe.client.stats();
        t.queries += s.queries;
        t.cache += s.cache_answered;
        t.hedges += s.hedges;
        t.hedge_wins += s.hedge_wins;
        t.stale += s.stale_served;
        t.failed += s.failed;
        t.evals += fe.evals;
        t.passes += fe.passes;
        t.failed_evals += fe.failed_evals;
        t.probes += fe.probes;
        t.mixed += fe.mixed;
    }
    for &n in &stack.laser.servers {
        let srv: &LaserShardServer = sim.actor(n).expect("shard server installed");
        t.min_bulk = t.min_bulk.min(srv.activated_version("ranker"));
    }
    (sim.metrics().clone(), t)
}

/// Merges [`SUBRUNS`] seeded runs of one (qps, fault, mode) cell.
fn run_cell(seed: u64, qps: u64, fault: FaultMode, hedge: bool) -> Totals {
    let mut merged = Metrics::new();
    let mut t = Totals {
        min_bulk: u64::MAX,
        ..Totals::default()
    };
    for sub in 0..SUBRUNS {
        let (m, r) = run_once(seed + 1000 * sub, qps, fault, hedge);
        merged.merge(&m);
        t.queries += r.queries;
        t.cache += r.cache;
        t.hedges += r.hedges;
        t.hedge_wins += r.hedge_wins;
        t.stale += r.stale;
        t.failed += r.failed;
        t.evals += r.evals;
        t.passes += r.passes;
        t.failed_evals += r.failed_evals;
        t.probes += r.probes;
        t.mixed += r.mixed;
        t.min_bulk = t.min_bulk.min(r.min_bulk);
    }
    let h = merged.histogram(lm::QUERY_S);
    t.p50_s = h.map(|h| h.quantile_secs(0.50));
    t.p99_s = h.map(|h| h.quantile_secs(0.99));
    t
}

fn fmt_ms(p: Option<f64>) -> String {
    match p {
        Some(s) => format!("{:.1}ms", s * 1e3),
        None => "-".to_string(),
    }
}

/// The chaos section: a seeded random fault schedule (crashes of shard
/// replicas, symmetric and one-way partitions) with the generation-mix and
/// convergence invariants checked at every quiesce point.
fn chaos_section(seed: u64) -> String {
    struct GenerationAtomicity {
        frontends: Vec<NodeId>,
    }
    impl Invariant for GenerationAtomicity {
        fn name(&self) -> &'static str {
            "generation-atomicity"
        }
        fn check_always(&mut self, sim: &Sim) -> Result<(), String> {
            for &f in &self.frontends {
                let fe: &Frontend = sim.actor(f).ok_or("frontend missing")?;
                if fe.mixed > 0 {
                    return Err(format!(
                        "frontend {f} saw {} probes mixing two bulk generations",
                        fe.mixed
                    ));
                }
            }
            Ok(())
        }
    }

    struct BulkConvergence {
        servers: Vec<NodeId>,
        expect: u64,
        note: Option<String>,
    }
    impl Invariant for BulkConvergence {
        fn name(&self) -> &'static str {
            "bulk-convergence"
        }
        fn check_final(&mut self, sim: &Sim) -> Result<(), String> {
            let mut probed = 0u64;
            for &n in &self.servers {
                let srv: &LaserShardServer = sim.actor(n).ok_or("server missing")?;
                let v = srv.activated_version("ranker");
                probed += 1;
                if v != self.expect {
                    return Err(format!(
                        "server {n} activated generation {v}, expected {}",
                        self.expect
                    ));
                }
            }
            self.note = Some(format!(
                "{probed} servers at bulk generation {}",
                self.expect
            ));
            Ok(())
        }
        fn note(&self) -> Option<String> {
            self.note.clone()
        }
    }

    struct StreamConvergence {
        servers: Vec<NodeId>,
    }
    impl Invariant for StreamConvergence {
        fn name(&self) -> &'static str {
            "stream-convergence"
        }
        fn check_final(&mut self, sim: &Sim) -> Result<(), String> {
            let path = feed::stream_path("gk");
            let mut newest = zeus::types::Zxid::ZERO;
            for &n in &self.servers {
                let srv: &LaserShardServer = sim.actor(n).ok_or("server missing")?;
                newest = newest.max(srv.last_applied(&path));
            }
            for &n in &self.servers {
                let srv: &LaserShardServer = sim.actor(n).ok_or("server missing")?;
                let have = srv.last_applied(&path);
                if have < newest {
                    return Err(format!(
                        "server {n} stuck at {have:?}, newest applied is {newest:?}"
                    ));
                }
            }
            Ok(())
        }
    }

    let topo = Topology::symmetric(3, 2, 6);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let stack = install(&mut sim, 40, true);
    schedule_workload(&mut sim, &stack);

    let crash_candidates: Vec<(String, NodeId)> = (0..stack.laser.map.num_shards())
        .flat_map(|s| {
            let map = &stack.laser.map;
            map.replicas(s)
                .iter()
                .enumerate()
                .map(move |(r, &n)| (format!("laser-s{s}r{r}"), n))
                .collect::<Vec<_>>()
        })
        .collect();
    let plan = ChaosPlan::generate(
        seed,
        &ChaosConfig {
            warmup: SimDuration::from_secs(2),
            horizon: SimDuration::from_secs(8),
            crash_candidates,
            max_crashes: 2,
            regions: 3,
            max_partitions: 1,
            max_oneway_partitions: 2,
            max_degrades: 0,
            min_outage: SimDuration::from_millis(500),
            max_outage: SimDuration::from_secs(2),
            ..ChaosConfig::default()
        },
    );
    let mut invariants: Vec<Box<dyn Invariant>> = vec![
        Box::new(GenerationAtomicity {
            frontends: stack.frontends.clone(),
        }),
        Box::new(BulkConvergence {
            servers: stack.laser.servers.clone(),
            expect: 3,
            note: None,
        }),
        Box::new(StreamConvergence {
            servers: stack.laser.servers.clone(),
        }),
    ];
    let report = run_plan(
        &mut sim,
        &plan,
        &mut invariants,
        SimDuration::from_millis(500),
        SimDuration::from_secs(5),
    );

    let mut out = format!("chaos schedule (seed {seed}):\n");
    for line in plan.describe() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str(&format!(
        "checked {} quiesce points, finished at {:.1}s\n",
        report.checkpoints,
        report.finished_at.as_secs_f64()
    ));
    for v in &report.verdicts {
        let status = if v.ok() { "ok" } else { "FAIL" };
        out.push_str(&format!("  [{status}] {}", v.name));
        if let Some(f) = &v.failure {
            out.push_str(&format!(" — {f}"));
        }
        if let Some(n) = &v.note {
            out.push_str(&format!(" ({n})"));
        }
        out.push('\n');
    }
    out
}

/// Runs the sweep and renders the report.
pub fn laser(seed: u64) -> String {
    let mut out = format!(
        "laser serving tier — seed {seed}: hedged vs unhedged reads under faults\n\
         fleet: 3 regions × 2 clusters × 6 servers; 5-node Zeus ensemble, 1 observer/cluster\n\
         laser: 4 shards × 2 replicas (cross-region groups), 3 frontends, 1 PV storage\n\
         workload: {USERS}-user gk stream refreshed every {}ms; 3 bulk generations;\n\
         fault window [{}s..{}s] on shard-0 replica 0; {SUBRUNS} sub-runs per cell\n\n\
         {:>4} {:<7} {:<8} {:>7} {:>7} {:>7} {:>5} {:>6} {:>6} {:>9} {:>9} {:>6} {:>6}\n",
        STREAM_EVERY_US / 1000,
        FAULT_AT_US / 1_000_000,
        FAULT_HEAL_US as f64 / 1e6,
        "qps",
        "fault",
        "mode",
        "queries",
        "cache",
        "hedges",
        "wins",
        "stale",
        "failed",
        "p50",
        "p99",
        "mixed",
        "bulk_v",
    );
    let mut summary = String::new();
    for &qps in QPS {
        for fault in [
            FaultMode::None,
            FaultMode::Crash,
            FaultMode::OneWay,
            FaultMode::Slow,
        ] {
            let hedged = run_cell(seed, qps, fault, true);
            let unhedged = run_cell(seed, qps, fault, false);
            for (name, t) in [("hedged", &hedged), ("unhedged", &unhedged)] {
                out.push_str(&format!(
                    "{qps:>4} {:<7} {name:<8} {:>7} {:>7} {:>7} {:>5} {:>6} {:>6} {:>9} {:>9} {:>6} {:>6}\n",
                    fault.label(),
                    t.queries,
                    t.cache,
                    t.hedges,
                    t.hedge_wins,
                    t.stale,
                    t.failed,
                    fmt_ms(t.p50_s),
                    fmt_ms(t.p99_s),
                    t.mixed,
                    t.min_bulk,
                ));
            }
            if qps == QPS[QPS.len() - 1] {
                let ratio = match (unhedged.p99_s, hedged.p99_s) {
                    (Some(u), Some(h)) if h > 0.0 => format!("{:.2}×", u / h),
                    _ => "-".to_string(),
                };
                summary.push_str(&format!(
                    "{:<7} @ {qps} qps: p99 {} hedged vs {} unhedged ({ratio}); \
                     failed evals {} hedged / {} unhedged; mixed-generation probes {}\n",
                    fault.label(),
                    fmt_ms(hedged.p99_s),
                    fmt_ms(unhedged.p99_s),
                    hedged.failed_evals,
                    unhedged.failed_evals,
                    hedged.mixed + unhedged.mixed,
                ));
            }
        }
    }
    out.push('\n');
    out.push_str(&summary);
    out.push('\n');
    out.push_str(&chaos_section(seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedging_cuts_p99_at_least_2x_under_slow_replica() {
        let hedged = run_cell(1, 160, FaultMode::Slow, true);
        let unhedged = run_cell(1, 160, FaultMode::Slow, false);
        let (h, u) = (hedged.p99_s.unwrap(), unhedged.p99_s.unwrap());
        assert!(
            u >= 2.0 * h,
            "expected ≥2× p99 cut from hedging under a slow replica: hedged={h:.4}s unhedged={u:.4}s"
        );
        assert!(hedged.hedge_wins > 0, "no hedge ever won the race");
    }

    #[test]
    fn no_failed_evals_during_single_replica_crash() {
        let t = run_cell(1, 40, FaultMode::Crash, true);
        assert!(t.evals > 100, "workload too thin: {} evals", t.evals);
        assert_eq!(
            t.failed_evals, 0,
            "gatekeeper laser() evaluations failed outright during a single-replica crash"
        );
        assert_eq!(t.failed, 0, "queries failed with a sibling replica up");
    }

    #[test]
    fn no_probe_observes_mixed_generations_and_bulk_converges() {
        for fault in [FaultMode::Crash, FaultMode::OneWay] {
            let t = run_cell(2, 40, fault, true);
            assert!(t.probes > 50, "probe workload too thin under {fault:?}");
            assert_eq!(t.mixed, 0, "mixed-generation probe under {fault:?}");
            assert_eq!(t.min_bulk, 3, "bulk load did not converge under {fault:?}");
        }
    }

    #[test]
    fn laser_report_is_deterministic_per_seed() {
        assert_eq!(laser(3), laser(3));
    }
}
