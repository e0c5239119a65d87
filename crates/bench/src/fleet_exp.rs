//! `repro fleet`: paper-scale diurnal replay of the distribution tree.
//!
//! The paper's production numbers are fleet-wide: hundreds of thousands of
//! servers receiving config updates through the Zeus ensemble → observer →
//! proxy tree, with commit arrivals following the strong diurnal cycle of
//! §5. This experiment replays that shape at five sizes (1k / 5k / 20k /
//! 50k / 100k nodes) on the allocation-free event core — the watch-lease
//! protocol and shared fan-out frames are what make the top sizes
//! tractable — and recomputes the paper's propagation-delay distribution
//! table at each size: the delay from a committed write to its landing in
//! each subscribed proxy's on-disk cache, summarized as p50/p90/p99/p999/max
//! over every (write, proxy) pair.
//!
//! Percentiles are rank-interpolated from the raw per-landing sample
//! series (not log-bucketed), and every table carries its sample count: a
//! day compresses to 131 writes, so the upper quantiles of a small fleet
//! rest on few samples and the count keeps that honest.
//!
//! Write arrivals are calibrated by `crates/workload`'s commit-rate model
//! (one modeled hour = one simulated second, so a day's diurnal curve is a
//! 24 s replay). Propagation delays are *virtual* time: deterministic per
//! seed and byte-stable across queue implementations, machines, and runs.
//!
//! Every replay runs with the engine's self-profiler on. `fleet --check`
//! prints only deterministic fields for the 1k, 5k, and 100k sizes (the
//! middle sizes add wall time, not coverage), followed by the 1k fleet's
//! busiest actors and folded stacks by event count. The live mode runs all
//! five sizes, reports wall-clock throughput with each size's
//! handler/engine split and per-subsystem wall shares, rewrites
//! `BENCH_simnet.json`, and emits two gates on stderr: the file's schema
//! check and the scaling gate, which divides events/s at 100k by events/s
//! at 1k from the same run (see [`SCALING_FLOOR`]).
//!
//! `fleet --mobile <clients>` swaps one proxy per cluster of the 1k fleet
//! for an aggregated MobileConfig population cohort
//! (`mobileconfig::population`): the requested client count splits across
//! the clusters, each cohort watches its cluster observer like a proxy and
//! models its clients' Poisson poll arrivals analytically, and the report
//! gives per-cohort staleness percentiles in modeled minutes.

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use gatekeeper::experiment::ParamValue;
use gatekeeper::project::Project;
use gatekeeper::runtime::Runtime;
use mobileconfig::population::{
    cohort_metric, PopulationActor, PopulationCfg, COHORT_OBSERVATIONS, COHORT_POLLS,
    COHORT_STALENESS_S,
};
use mobileconfig::{Binding, FieldType, MobileConfigServer, MobileSchema, TranslationLayer};
use simnet::prelude::*;
use workload::commits::CommitProcess;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::metrics::{PROPAGATION_S, PROXY_UPDATES};

use crate::bench_json::{self, FleetRow};

/// Config paths the diurnal workload writes and every proxy subscribes to.
const PATHS: usize = 4;
/// Seed for every fleet size (the replay must be deterministic).
const SEED: u64 = 1;
/// Simulated microseconds per modeled hour (the replay's time
/// compression; also the spacing of the diurnal write windows).
const HOUR_US: u64 = 1_000_000;

/// The five fleet sizes: (label, regions, clusters/region, servers/cluster).
const FLEETS: &[(&str, usize, usize, usize)] = &[
    ("1k", 3, 4, 84),      // 1008 nodes
    ("5k", 3, 7, 240),     // 5040 nodes
    ("20k", 4, 10, 500),   // 20000 nodes
    ("50k", 5, 10, 1000),  // 50000 nodes
    ("100k", 5, 20, 1000), // 100000 nodes
];

/// Floor of the scaling gate: events/s at the larger of [`SCALING_TIERS`]
/// divided by events/s at the smaller, both from one live run. Host speed
/// cancels out of the ratio, so what it catches is per-event cost that
/// grows with fleet size — the class of regression watch leases fixed,
/// which no small-fleet measurement can see. Uniform slowdowns are the
/// repo benchmark's job (`sim_events_per_s` on `fleet_day`/`fleet_faults`).
/// Half the lowest ratio over the live runs listed in EXPERIMENTS.md
/// (0.174 of five), rounded down.
const SCALING_FLOOR: f64 = 0.08;
/// The (small, large) fleet sizes the scaling gate compares.
const SCALING_TIERS: (&str, &str) = ("1k", "100k");

struct FleetResult {
    row: FleetRow,
    bytes_sent: u64,
    queue_peak: usize,
    queue_mean: f64,
    /// Wall milliseconds inside actor handlers; the rest of `row.wall_ms`
    /// is the engine (queue, network model, dispatch).
    handler_ms: f64,
    /// Busiest actors by event count (virtual; deterministic).
    busy_table: String,
    /// Folded stacks by event count (virtual; deterministic).
    folded: String,
}

/// Installs the Zeus tree and schedules the diurnal write day; returns
/// `(horizon, writes, deployment)`.
fn build_scenario(sim: &mut Sim) -> (SimTime, u64, ZeusDeployment) {
    let cfg = DeployConfig {
        subscriptions: (0..PATHS).map(|i| format!("fleet/{i}")).collect(),
        ..DeployConfig::default()
    };
    let zeus = ZeusDeployment::install(sim, &cfg);

    // One modeled hour compresses to one simulated second; each hour's
    // commit count comes from the diurnal model and is scaled to at most
    // 12 writes/s so the 100k-node size stays tractable.
    let hours = CommitProcess::default().hourly_series(1, SEED);
    let scale = 12.0 / hours.iter().copied().max().unwrap_or(1).max(1) as f64;
    let mut seq = 0u64;
    for (h, &commits) in hours.iter().enumerate() {
        let window_start = HOUR_US + h as u64 * HOUR_US;
        let n = ((commits as f64 * scale).round() as u64).max(1);
        for k in 0..n {
            let at = SimTime(window_start + k * (HOUR_US / n));
            let path = format!("fleet/{}", seq as usize % PATHS);
            zeus.write_current(sim, at, &path, Bytes::from(format!("v{seq}")));
            seq += 1;
        }
    }
    let horizon = SimTime(HOUR_US + hours.len() as u64 * HOUR_US + 5_000_000);
    (horizon, seq, zeus)
}

fn run_fleet(name: &str, regions: usize, clusters: usize, servers: usize) -> FleetResult {
    let topo = Topology::symmetric(regions, clusters, servers);
    let nodes = topo.num_nodes();
    let mut sim = Sim::new(topo, NetConfig::datacenter(), SEED);
    sim.enable_profiler();
    let (horizon, writes, _zeus) = build_scenario(&mut sim);
    let start = Instant::now();
    sim.run_until(horizon);
    let wall = start.elapsed();
    let events = sim.events_processed();
    // The paper's propagation table: virtual delay from commit to each
    // proxy's on-disk apply, rank-interpolated from the raw sample series
    // every proxy feeds (one sample per landing). All quantiles — and the
    // sample count that qualifies them — are deterministic.
    let mut sorted: Vec<f64> = sim.metrics().samples(PROPAGATION_S).to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let samples = sorted.len() as u64;
    let prop = |p: f64| -> f64 {
        if sorted.is_empty() {
            0.0
        } else {
            simnet::stats::percentile_sorted(&sorted, p) * 1e3
        }
    };
    let propagation_ms = [prop(50.0), prop(90.0), prop(99.0), prop(99.9), prop(100.0)];
    let p = sim.profiler();
    let handler_ns: u64 = p.by_kind().iter().map(|(_, c)| c.wall_ns).sum();
    FleetResult {
        row: FleetRow {
            fleet: name.to_string(),
            nodes: nodes as u64,
            events,
            wall_ms: wall.as_secs_f64() * 1e3,
            events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
            writes,
            proxy_updates: sim.metrics().counter(PROXY_UPDATES),
            samples,
            propagation_ms,
            subsystem_wall_shares: p
                .subsystem_wall_shares()
                .into_iter()
                .map(|(k, s)| (k.to_string(), s))
                .collect(),
        },
        bytes_sent: sim.metrics().counter(simnet::stats::names::BYTES_SENT),
        queue_peak: p.queue_peak(),
        queue_mean: p.queue_mean(),
        handler_ms: handler_ns as f64 / 1e6,
        busy_table: p.render_hot_actors(5, false),
        folded: p.folded_stacks(false),
    }
}

fn virtual_report(out: &mut String, r: &FleetResult) {
    let row = &r.row;
    let _ = writeln!(
        out,
        "fleet={} nodes={} events={} writes={} proxy_updates={} bytes_sent={} peak_queue={} mean_queue={:.2}",
        row.fleet,
        row.nodes,
        row.events,
        row.writes,
        row.proxy_updates,
        r.bytes_sent,
        r.queue_peak,
        r.queue_mean,
    );
    let p = &row.propagation_ms;
    let _ = writeln!(
        out,
        "propagation delay (virtual ms, samples={}): p50={:.3} p90={:.3} p99={:.3} p999={:.3} max={:.3}\n",
        row.samples, p[0], p[1], p[2], p[3], p[4]
    );
}

/// The deterministic part of the profiler's view of one replay: the
/// busiest actors and the folded stacks, both by event count.
fn profile_report(out: &mut String, r: &FleetResult) {
    let name = &r.row.fleet;
    let _ = writeln!(
        out,
        "busiest actors, {name} fleet (by events):\n{}",
        r.busy_table
    );
    let _ = writeln!(
        out,
        "folded stacks, {name} fleet (event counts):\n{}",
        r.folded
    );
}

/// The one wall-clock gate, as its stderr line (see [`SCALING_FLOOR`]). A
/// run missing either tier fails: a gate that was not evaluated must not
/// read as passed.
fn scaling_gate(rows: &[FleetRow]) -> String {
    let (small, large) = SCALING_TIERS;
    let eps = |tier: &str| {
        rows.iter()
            .find(|r| r.fleet == tier)
            .map(|r| r.events_per_sec)
    };
    match (eps(small), eps(large)) {
        (Some(s), Some(l)) if s > 0.0 => {
            let ratio = l / s;
            let verdict = if ratio >= SCALING_FLOOR {
                "PASS"
            } else {
                "FAIL"
            };
            format!(
                "fleet scaling gate: {verdict} ({large}/{small} events/s = {l:.0}/{s:.0} = {ratio:.3}, floor {SCALING_FLOOR:.2})"
            )
        }
        _ => format!("fleet scaling gate: FAIL (the run lacks the {small} or {large} fleet)"),
    }
}

/// Runs the paper-scale replay. With `check` set, runs the 1k, 5k, and
/// 100k sizes and prints only deterministic fields (golden-gated by
/// `scripts/check.sh`); otherwise runs all five sizes, prints the live
/// wall-clock report, rewrites `BENCH_simnet.json`, and emits the schema
/// and scaling gates on stderr. Exits the process with status 1 if the
/// file cannot be written.
pub fn fleet(check: bool) -> String {
    let mut out = String::new();
    let results: Vec<FleetResult> = FLEETS
        .iter()
        .filter(|&&(name, ..)| !(check && (name == "20k" || name == "50k")))
        .map(|&(name, r, c, s)| run_fleet(name, r, c, s))
        .collect();

    if check {
        let _ = writeln!(
            out,
            "paper-scale fleet replay — virtual (deterministic) fields only\n\
             (diurnal write day over the zeus tree; propagation delays are\n\
             simulated time and replay byte-identically per seed)\n"
        );
        for r in &results {
            virtual_report(&mut out, r);
        }
        profile_report(&mut out, &results[0]);
        return out;
    }

    let _ = writeln!(
        out,
        "paper-scale fleet replay — diurnal commit day over the zeus tree\n\
         (1 modeled hour = 1 s; propagation table recomputed per fleet size)\n"
    );
    for r in &results {
        let row = &r.row;
        let _ = writeln!(
            out,
            "fleet={} nodes={} events={} wall_ms={:.1} events/sec={:.0}",
            row.fleet, row.nodes, row.events, row.wall_ms, row.events_per_sec
        );
        let shares: Vec<String> = row
            .subsystem_wall_shares
            .iter()
            .map(|(k, s)| format!("{k}={:.1}%", s * 100.0))
            .collect();
        let _ = writeln!(
            out,
            "wall split: handlers={:.1}ms engine={:.1}ms; subsystem wall-time shares: {}",
            r.handler_ms,
            row.wall_ms - r.handler_ms,
            shares.join(" ")
        );
        virtual_report(&mut out, r);
    }

    let rows: Vec<FleetRow> = results.into_iter().map(|r| r.row).collect();
    let json = bench_json::render(&rows);
    if let Err(e) = std::fs::write(bench_json::PATH, &json) {
        // The file on disk is stale now; nothing below may pass for it.
        eprintln!("fleet: failed to write {}: {e}", bench_json::PATH);
        std::process::exit(1);
    }
    eprintln!("wrote {}", bench_json::PATH);
    match bench_json::validate(&json) {
        Ok(()) => eprintln!("fleet schema: OK"),
        Err(e) => eprintln!("fleet schema: FAIL ({e})"),
    }
    eprintln!("{}", scaling_gate(&rows));
    out
}

/// The MobileConfig stack each cohort resolves through: the same schema +
/// translation bindings as `repro mobile`, so the population path
/// exercises real Gatekeeper/experiment/constant lookups.
fn cohort_server() -> (MobileConfigServer, MobileSchema) {
    let schema = MobileSchema::new(
        "MainApp",
        &[
            ("feature_x", FieldType::Bool),
            ("feed_batch", FieldType::Int),
            ("upload_quality", FieldType::Float),
        ],
    );
    let mut t = TranslationLayer::new();
    t.bind(
        "MainApp",
        "feature_x",
        Binding::Gatekeeper {
            project: "X".into(),
        },
    );
    t.bind(
        "MainApp",
        "feed_batch",
        Binding::Constant(ParamValue::Int(20)),
    );
    t.bind(
        "MainApp",
        "upload_quality",
        Binding::Constant(ParamValue::Float(0.8)),
    );
    let mut gk = Runtime::new(laser::Laser::new(16));
    gk.update_project(Project::fraction_launch("X", 0.5));
    let mut server = MobileConfigServer::new(t, gk);
    server.register_schema(schema.clone());
    (server, schema)
}

/// `repro fleet --mobile <clients>`: the 1k fleet with one aggregated
/// MobileConfig population cohort per cluster. The requested client count
/// splits evenly across clusters (remainder to the first ones); each
/// cohort replaces its cluster's last proxy, watches the cluster observer,
/// and models its clients analytically (no per-device actors). The report
/// is entirely virtual-time and byte-deterministic.
pub fn fleet_mobile(clients: u64) -> String {
    let (_, regions, clusters, servers) = FLEETS[0];
    let nclusters = regions * clusters;
    let mut sim = Sim::new(
        Topology::symmetric(regions, clusters, servers),
        NetConfig::datacenter(),
        SEED,
    );
    let (horizon, writes, zeus) = build_scenario(&mut sim);
    let topo = sim.topology().clone();

    let mut proxies_by_cluster: Vec<Vec<NodeId>> = vec![Vec::new(); nclusters];
    for &p in &zeus.proxies {
        proxies_by_cluster[topo.placement(p).cluster.0 as usize].push(p);
    }
    let obs_per_cluster = zeus.observers.len() / nclusters;
    let diurnal = CommitProcess::default().diurnal_factors();
    // Mean poll interval: 15 modeled minutes, expressed in the compressed
    // clock (1 modeled hour = HOUR_US of simulated time).
    let mean_poll = SimDuration::from_micros(HOUR_US / 4);
    let base = clients / nclusters as u64;
    let rem = clients % nclusters as u64;
    let mut cohorts: Vec<(String, u64)> = Vec::new();
    for (c, cluster_proxies) in proxies_by_cluster.iter().enumerate() {
        let cohort_clients = base + u64::from((c as u64) < rem);
        if cohort_clients == 0 {
            continue;
        }
        let host = *cluster_proxies.last().expect("every cluster hosts proxies");
        let label = format!("c{c:02}");
        let (server, schema) = cohort_server();
        let actor = PopulationActor::new(PopulationCfg {
            observer: zeus.observers[c * obs_per_cluster],
            paths: (0..PATHS).map(|i| format!("fleet/{i}")).collect(),
            clients: cohort_clients,
            mean_poll,
            diurnal,
            hour_us: HOUR_US,
            label: label.clone(),
        })
        // Tick every 100 ms of simulated time = 6 modeled minutes.
        .with_tick(SimDuration::from_millis(100))
        .with_server(server, schema);
        sim.add_actor(host, Box::new(actor));
        cohorts.push((label, cohort_clients));
    }

    sim.run_until(horizon);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "mobileconfig population cohorts over the 1k fleet — virtual fields only\n\
         (diurnal write day; each cohort aggregates its cluster's pull\n\
         clients analytically; staleness is commit→client-visibility in\n\
         modeled minutes, 1 simulated second = 1 modeled hour)\n"
    );
    let _ = writeln!(
        out,
        "clients={} cohorts={} paths={} writes={} mean_poll_modeled_min=15",
        clients,
        cohorts.len(),
        PATHS,
        writes
    );
    // 1 simulated second = 60 modeled minutes.
    let min = |h: &simnet::stats::Histogram, q: f64| h.quantile_secs(q) * 60.0;
    for (label, cohort_clients) in &cohorts {
        let polls = sim.metrics().counter(&cohort_metric(COHORT_POLLS, label));
        let obs = sim
            .metrics()
            .counter(&cohort_metric(COHORT_OBSERVATIONS, label));
        match sim
            .metrics()
            .histogram(&cohort_metric(COHORT_STALENESS_S, label))
        {
            Some(h) => {
                let _ = writeln!(
                    out,
                    "cohort={label} clients={cohort_clients} polls={polls} observations={obs} \
                     staleness modeled min: p50={:.2} p90={:.2} p99={:.2} max={:.2}",
                    min(h, 0.50),
                    min(h, 0.90),
                    min(h, 0.99),
                    min(h, 1.0),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "cohort={label} clients={cohort_clients} polls={polls} observations={obs} \
                     staleness modeled min: (no observations)"
                );
            }
        }
    }
    if let Some(h) = sim.metrics().histogram(COHORT_STALENESS_S) {
        let _ = writeln!(
            out,
            "\nall cohorts ({} clients) staleness modeled min: p50={:.2} p90={:.2} p99={:.2} max={:.2}",
            clients,
            min(h, 0.50),
            min(h, 0.90),
            min(h, 0.99),
            min(h, 1.0),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_k_replay_is_deterministic_and_converges() {
        let (name, r, c, s) = FLEETS[0];
        let a = run_fleet(name, r, c, s);
        let b = run_fleet(name, r, c, s);
        let report = |r: &FleetResult| {
            let mut out = String::new();
            virtual_report(&mut out, r);
            profile_report(&mut out, r);
            out
        };
        let ra = report(&a);
        assert_eq!(
            ra,
            report(&b),
            "virtual fleet report must be byte-identical"
        );
        assert!(
            ra.contains("sim;zeus.ensemble;deliver"),
            "folded stacks:\n{ra}"
        );
        // Wall-clock leak audit: the --check surface is built from
        // `virtual_report` and `profile_report` only, so nothing
        // wall-clock may appear in it.
        for leak in ["wall_ms", "events/sec", "wall", "share"] {
            assert!(
                !ra.contains(leak),
                "wall-clock field {leak:?} leaked into --check"
            );
        }
        assert_eq!(a.row.nodes, 1008);
        assert!(a.row.writes > 100, "diurnal day must commit writes");
        assert!(
            a.row.proxy_updates >= a.row.writes,
            "each write must land in at least one proxy cache"
        );
        assert_eq!(
            a.row.samples, a.row.proxy_updates,
            "one raw propagation sample per proxy apply"
        );
        let p = &a.row.propagation_ms;
        assert!(p[0] > 0.0 && p[0] <= p[1] && p[1] <= p[2] && p[2] <= p[4]);
    }

    #[test]
    fn scaling_gate_compares_the_two_tiers_of_one_run() {
        let row = |fleet: &str, events_per_sec: f64| FleetRow {
            fleet: fleet.to_string(),
            nodes: 0,
            events: 0,
            wall_ms: 0.0,
            events_per_sec,
            writes: 0,
            proxy_updates: 0,
            samples: 0,
            propagation_ms: [0.0; 5],
            subsystem_wall_shares: Vec::new(),
        };
        let small = 3.0e6;
        let pass = scaling_gate(&[
            row("1k", small),
            row("5k", 2.0e6),
            row("100k", small * SCALING_FLOOR * 1.5),
        ]);
        assert!(pass.starts_with("fleet scaling gate: PASS"), "{pass}");
        let fail = scaling_gate(&[row("1k", small), row("100k", small * SCALING_FLOOR * 0.5)]);
        assert!(fail.starts_with("fleet scaling gate: FAIL"), "{fail}");
        let missing = scaling_gate(&[row("1k", small), row("5k", 2.0e6)]);
        assert!(missing.starts_with("fleet scaling gate: FAIL"), "{missing}");
    }

    #[test]
    fn mobile_cohorts_are_deterministic_and_observe_every_write() {
        let a = fleet_mobile(120_000);
        let b = fleet_mobile(120_000);
        assert_eq!(a, b, "--mobile report must be byte-identical");
        assert!(a.contains("cohort=c00 clients=10000"));
        assert!(
            a.contains("all cohorts (120000 clients)"),
            "aggregate staleness line missing:\n{a}"
        );
        // Every cohort line must carry a real staleness distribution.
        assert!(
            !a.contains("(no observations)"),
            "cohort saw no writes:\n{a}"
        );
    }
}
