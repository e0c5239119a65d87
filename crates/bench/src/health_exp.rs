//! `repro health`: the ODS-style fleet health plane under chaos.
//!
//! The paper's evaluation reads fleet health off ODS: per-tier time series
//! of propagation latency, staleness, and commit/error rates, with SLO
//! dashboards on top. This experiment deploys every tier onto one simulated
//! fleet — Zeus consensus + observers + proxies, a Laser stream-serving
//! group fed from an observer, a MobileConfig-style pull leg, and the
//! Configerator commit pipeline bridged in from the driver — turns the
//! `simnet::ods` plane on, runs a seeded chaos plan through it, and reports
//! what the scrapes saw: the per-tier series index, windowed rollups, and
//! multi-window propagation-SLO burn rates (fast 5s / slow 60s of simulated
//! time; a policy pages when *both* windows burn at or above its page
//! level).
//!
//! Every number here derives from virtual time and seeded randomness, so
//! the report is byte-deterministic per seed and golden-gated by
//! `repro check` (two chaos seeds are included in the golden).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bytes::Bytes;
use configerator::service::ConfigeratorService;
use gatekeeper::experiment::ParamValue;
use laser::deploy::{LaserDeployConfig, LaserDeployment};
use laser::feed;
use simnet::chaos::{ChaosConfig, ChaosPlan};
use simnet::ods::{series, tiers, SeriesKind, SloPolicy};
use simnet::prelude::*;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::pull::{PullClientActor, PullMsg, PullServerActor};

/// Config paths the workload writes and every proxy subscribes to.
const PATHS: usize = 4;
/// Write cadence while the plan is active.
const WRITE_PERIOD_US: u64 = 400_000;
/// Scrape cadence of the aggregation tier.
const SCRAPE_PERIOD_US: u64 = 2_500_000;

fn kind_label(k: SeriesKind) -> &'static str {
    match k {
        SeriesKind::Counter => "counter",
        SeriesKind::Gauge => "gauge",
        SeriesKind::Sample => "sample",
    }
}

/// The SLO policies the health plane evaluates, shared by report and
/// rendering so the golden shows exactly what was registered.
fn policies() -> Vec<SloPolicy> {
    vec![
        SloPolicy {
            tier: tiers::PROXY.into(),
            series: series::PROPAGATION_S.into(),
            threshold: 0.15,
            objective: 0.9,
            page_burn: 1.5,
        },
        SloPolicy {
            tier: tiers::LASER.into(),
            series: series::INGEST_LAG_S.into(),
            threshold: 0.3,
            objective: 0.9,
            page_burn: 1.5,
        },
        SloPolicy {
            tier: tiers::MOBILE.into(),
            series: series::STALENESS_S.into(),
            threshold: 3.0,
            objective: 0.9,
            page_burn: 1.5,
        },
    ]
}

fn run_seed(seed: u64, out: &mut String) {
    let topo = Topology::symmetric(3, 2, 8);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    sim.enable_ods(SimDuration::from_secs(5), SimDuration::from_secs(60));
    for p in policies() {
        sim.ods_mut().register_slo(p);
    }

    let zeus = ZeusDeployment::install(
        &mut sim,
        &DeployConfig {
            subscriptions: (0..PATHS).map(|i| format!("health/{i}")).collect(),
            ..DeployConfig::default()
        },
    );

    // Carve the serving-side roles out of the proxy pool: a pull server
    // with four polling clients (the MobileConfig leg), and a Laser stream
    // group ingesting from the observers.
    let pool = zeus.proxies.clone();
    let pull_server = pool[0];
    sim.add_actor(pull_server, Box::new(PullServerActor::new()));
    let pull_paths: Vec<String> = (0..PATHS).map(|i| format!("health/{i}")).collect();
    for &c in &pool[1..5] {
        sim.add_actor(
            c,
            Box::new(PullClientActor::new(
                pull_server,
                SimDuration::from_secs(2),
                pull_paths.clone(),
            )),
        );
    }
    let laser = LaserDeployment::install(
        &mut sim,
        &LaserDeployConfig {
            shards: 2,
            replicas: 2,
            candidates: pool[5..].to_vec(),
            observers: zeus.observers.clone(),
            stream_datasets: vec!["gk".into()],
            bulk_datasets: Vec::new(),
            memory_cap: 4096,
            pv_window: 4,
        },
    );

    // Chaos plan over every tier, same candidate shape as `repro chaos`.
    let plan = ChaosPlan::generate(
        seed,
        &ChaosConfig {
            crash_candidates: vec![
                ("leader".into(), zeus.ensemble[0]),
                ("follower".into(), zeus.ensemble[1]),
                ("observer".into(), zeus.observers[0]),
                ("observer".into(), zeus.observers[zeus.observers.len() / 2]),
                ("laser".into(), laser.servers[0]),
                ("proxy".into(), pool[5]),
            ],
            regions: 3,
            ..ChaosConfig::default()
        },
    );
    plan.apply(&mut sim);
    let horizon = plan.horizon + SimDuration::from_secs(5);

    // Write workload: config writes cycling the subscribed paths (mirrored
    // into the pull server), plus a Laser stream feed through Zeus.
    let first = 1_000_000u64;
    let last = horizon.as_micros().saturating_sub(2_000_000);
    let mut at = first;
    let mut seq = 0u64;
    while at < last {
        let path = format!("health/{}", seq as usize % PATHS);
        let data = Bytes::from(format!("v{seq}-s{seed}"));
        zeus.write_current(&mut sim, SimTime(at), &path, data.clone());
        sim.post(
            SimTime(at),
            pull_server,
            pull_server,
            Box::new(PullMsg::Set {
                path,
                data,
                origin: SimTime(at),
            }),
        );
        if seq.is_multiple_of(2) {
            let entries: Vec<(String, f64)> = (0..4)
                .map(|k| (format!("key{k}"), (seq + k) as f64))
                .collect();
            zeus.write_current(
                &mut sim,
                SimTime(at),
                &feed::stream_path("gk"),
                feed::encode_entries(&entries),
            );
        }
        at += WRITE_PERIOD_US;
        seq += 1;
    }

    // The Configerator pipeline runs outside the actor plane; land its
    // commits up front and bridge the reports into the plane at a steady
    // cadence, the way a real service's stats publisher would.
    let mut svc = ConfigeratorService::new();
    let mut commit_at = 2_000_000u64;
    let mut idx = 0u64;
    while commit_at < last {
        let mut ch: BTreeMap<String, Option<String>> = BTreeMap::new();
        ch.insert(
            "health.cconf".into(),
            Some(format!("export_if_last({{\"gen\": {idx}}})")),
        );
        let mut report = svc
            .commit_source("health", "tick", ch)
            .expect("trivial config compiles");
        // The report carries measured wall-clock compile time, but this
        // experiment's output is compared byte-for-byte per seed; bridge a
        // deterministic per-commit duration into the plane instead (the
        // health rollups exercise the series shape, not the measurement).
        report.stats.compile_us = 1_500 + 350 * (idx % 4);
        let node = zeus.ensemble[0];
        sim.schedule(SimTime(commit_at), move |s| {
            let now = s.now();
            configerator::metrics::publish_commit_ods(&report, s.ods_mut(), node, now);
        });
        // Every third tick also lands a broken entry, so the error series
        // carries real compile rejections.
        if idx % 3 == 2 {
            let mut bad: BTreeMap<String, Option<String>> = BTreeMap::new();
            bad.insert("broken.cconf".into(), Some("export_if_last(".into()));
            assert!(svc.commit_source("health", "bad", bad).is_err());
            sim.schedule(SimTime(commit_at + 1), move |s| {
                let now = s.now();
                configerator::metrics::publish_commit_error_ods(s.ods_mut(), node, now, 1);
            });
        }
        commit_at += 5_000_000;
        idx += 1;
    }

    // The MobileConfig server also runs off-sim; poll a small device
    // population between publish intervals and bridge the cumulative
    // ServerStats in as deltas (`ServerStats::publish_ods`), one snapshot
    // per interval.
    let constants = [("feed_batch", ParamValue::Int(20))];
    let (mut mc_server, schema) = crate::mobile::server("HealthApp", "feature_x", &constants, 0.0);
    let mut devices: Vec<mobileconfig::MobileConfigClient> = (0..6)
        .map(|i| {
            mobileconfig::MobileConfigClient::new(
                gatekeeper::context::UserContext::with_id(i),
                schema.clone(),
            )
        })
        .collect();
    let mut prev = mobileconfig::ServerStats::default();
    let mut publish_at = 3_000_000u64;
    let mut round = 0u64;
    while publish_at < horizon.as_micros() {
        if round == 3 {
            // A rollout widens mid-run, invalidating cached hashes.
            mc_server
                .gatekeeper_mut()
                .update_project(gatekeeper::project::Project::fraction_launch("X", 0.5));
        }
        for d in &mut devices {
            d.poll(&mut mc_server);
        }
        let snap = mc_server.stats();
        let at = SimTime(publish_at);
        let node = pull_server;
        sim.schedule(at, move |s| {
            snap.publish_ods(&prev, s.ods_mut(), node, at);
        });
        prev = snap;
        publish_at += 3_000_000;
        round += 1;
    }

    // The aggregation tier: periodic scrapes from the driver plane.
    let mut t = SCRAPE_PERIOD_US;
    while t <= horizon.as_micros() {
        sim.schedule(SimTime(t), |s| {
            let now = s.now();
            s.ods_mut().scrape(now);
        });
        t += SCRAPE_PERIOD_US;
    }

    sim.run_until(horizon);

    // ---- Report ----
    let ods = sim.ods();
    let faults = plan.describe();
    let _ = writeln!(
        out,
        "seed {seed}: horizon={:.1}s scrapes={} faults: {}",
        horizon.as_secs_f64(),
        ods.scrapes().len(),
        if faults.is_empty() {
            "none drawn".to_string()
        } else {
            faults.join("; ")
        }
    );
    let _ = writeln!(out, "  series index (tier/series kind nodes points):");
    for (tier, name, kind, nodes) in ods.series_index() {
        let (count, _) = ods.totals(&tier, &name);
        let _ = writeln!(
            out,
            "    {:<32} {:<8} {:>3} {:>6}",
            format!("{tier}/{name}"),
            kind_label(kind),
            nodes,
            count
        );
    }
    let last_scrape = ods.scrapes().last().expect("at least one scrape");
    let _ = writeln!(
        out,
        "  final scrape at {:.1}s (fast 5s / slow 60s):",
        last_scrape.at.as_secs_f64()
    );
    for r in &last_scrape.rows {
        let _ = writeln!(
            out,
            "    {:<32} fast(n={} rate={:.2}/s p99={:.3}) slow(n={} rate={:.2}/s p99={:.3})",
            format!("{}/{}", r.tier, r.name),
            r.fast.count,
            r.fast.rate_per_s,
            r.fast.p99,
            r.slow.count,
            r.slow.rate_per_s,
            r.slow.p99
        );
    }
    let _ = writeln!(
        out,
        "  propagation SLO burn rates (per policy, final scrape):"
    );
    for p in policies() {
        let row = last_scrape
            .rows
            .iter()
            .find(|r| r.tier == p.tier && r.name == p.series);
        match row {
            Some(r) => {
                let paging = r.fast.burn_rate >= p.page_burn && r.slow.burn_rate >= p.page_burn;
                let _ = writeln!(
                    out,
                    "    {:<32} obj={:.0}% thr={:.2}s fast_burn={:.2} slow_burn={:.2} breach={:.1}% {}",
                    format!("{}/{}", p.tier, p.series),
                    p.objective * 100.0,
                    p.threshold,
                    r.fast.burn_rate,
                    r.slow.burn_rate,
                    r.slow.breach_fraction * 100.0,
                    if paging { "PAGE" } else { "ok" }
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "    {:<32} (no samples)",
                    format!("{}/{}", p.tier, p.series)
                );
            }
        }
    }
    let alerts = ods.slo_alerts();
    let _ = writeln!(out, "  pages fired across the run: {}", alerts.len());
    for a in &alerts {
        let _ = writeln!(
            out,
            "    {:.1}s {}/{} fast_burn={:.2} slow_burn={:.2}",
            a.at.as_secs_f64(),
            a.tier,
            a.series,
            a.fast_burn,
            a.slow_burn
        );
    }
    let shape: Vec<String> = ods
        .fleet_series(tiers::PROXY, series::PROPAGATION_S)
        .iter()
        .map(|(_, w)| w.count.to_string())
        .collect();
    let _ = writeln!(
        out,
        "  proxy propagation fast-window sample counts per scrape: [{}]",
        shape.join(" ")
    );
}

/// Runs the health plane under two chaos seeds and renders the combined
/// report (the golden covers both).
pub fn report(seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ODS fleet health plane — per-tier rollups + multi-window SLO burn\n\
         (zeus/observer/proxy/laser/mobile/configerator emitters; scrape\n\
         every {:.1}s; a policy pages when fast AND slow burn >= page level)\n",
        SCRAPE_PERIOD_US as f64 / 1e6
    );
    for s in [seed, seed + 1] {
        run_seed(s, &mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_report_is_deterministic_and_covers_tiers() {
        let a = report(1);
        let b = report(1);
        assert_eq!(a, b, "health report must be byte-identical per seed");
        for needle in [
            "zeus/commits",
            "proxy/propagation_s",
            "laser/ingest_lag_s",
            "mobile/staleness_s",
            "mobile/not_modified_fraction",
            "configerator/landed",
        ] {
            assert!(a.contains(needle), "missing {needle} in report:\n{a}");
        }
    }
}
