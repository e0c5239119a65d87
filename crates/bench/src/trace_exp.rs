//! `repro trace` / `repro metrics`: the end-to-end propagation timeline
//! explorer and the Prometheus-style metrics dump.
//!
//! One seeded run drives the *whole* pipeline from the paper's Figure 2:
//! an engineer's diff enters the landing strip, lands in the git
//! repository, is picked up by the git tailer, and is handed to Zeus for
//! distribution — leader propose, quorum commit, observer fan-out, proxy
//! apply. Every stage records a span into [`simnet::Tracer`], with the
//! trace context riding inside the Zeus protocol messages, so a commit's
//! journey stays causally linked across retransmissions, elections, and
//! observer failovers.
//!
//! `repro trace --seed <n>` renders one waterfall per commit: each hop
//! with its node and sim-time delta from the mutator's commit, fan-out
//! hops (follower appends, observer applies, proxy applies) aggregated
//! with first/last deltas, and every retry/drop annotation tallied.
//! `--chaos` overlays the same seeded fault plan used by `repro chaos`,
//! which is where the waterfalls get interesting: retransmit storms,
//! re-proposals after elections, and proxies that apply seconds late via
//! observer failover.
//!
//! Two delivery legs extend each waterfall past the proxy tier. A
//! MobileConfig device polls the translation layer once a second; the
//! poll that first observes a commit's payload appends a `mobile.pull`
//! span (with the delta-sync byte count) to that commit's trace. And a
//! PackageVessel bulk package published to the Laser tier gets its own
//! trace: `pv.publish` roots it, the `laser-bulk/<dataset>` metadata
//! announcements ride Zeus under it, and each shard server's atomic
//! generation flip appends a `laser.bulk_activate` span.
//!
//! `repro metrics --seed <n>` runs the same pipeline and dumps every
//! counter and HDR histogram in Prometheus text exposition format. The
//! output is byte-deterministic per seed — `scripts/check.sh` diffs it
//! against checked-in goldens.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use configerator::landing::{LandingStrip, SourceDiff};
use configerator::service::ConfigeratorService;
use configerator::tailer::GitTailer;
use gatekeeper::context::UserContext;
use gatekeeper::experiment::ParamValue;
use gatekeeper::runtime::Runtime;
use laser::deploy::{LaserDeployConfig, LaserDeployment};
use laser::feed;
use mobileconfig::{
    Binding, FieldType, MobileConfigClient, MobileConfigServer, MobileSchema, TranslationLayer,
};
use packagevessel::deploy::PvDeployment;
use packagevessel::storage::{PeerPolicy, StorageActor};
use simnet::chaos::ChaosConfig;
use simnet::prelude::*;
use simnet::trace::RecordKind;
use zeus::deploy::{DeployConfig, ZeusDeployment};

/// Driver-side hop names (the configerator front-end runs in-process, off
/// the actor plane, so these spans carry no node).
const HOP_MUTATOR: &str = "mutator.commit";
const HOP_LANDING: &str = "landing.land";
const HOP_GITSTORE: &str = "gitstore.commit";
const HOP_TAILER: &str = "tailer.pickup";
/// A mobile client's delta-sync poll observes the commit on a device (§5).
const HOP_MOBILE_PULL: &str = "mobile.pull";
/// Bulk-package publication to the PackageVessel storage tier (§3.5).
const HOP_PV_PUBLISH: &str = "pv.publish";

/// Distinct config paths the commits cycle over.
const PATHS: usize = 2;
/// Number of commits pushed through the pipeline.
const COMMITS: usize = 6;
/// First commit time and inter-commit spacing.
const FIRST_COMMIT_US: u64 = 1_000_000;
const COMMIT_PERIOD_US: u64 = 3_000_000;
/// The landing strip processes its queue this long after submission
/// (review + continuous-integration latency, collapsed to a constant).
const LANDING_DELAY_US: u64 = 300_000;
/// Git tailer poll period.
const TAILER_PERIOD_US: u64 = 500_000;
/// Mobile device delta-sync poll period.
const MOBILE_POLL_US: u64 = 1_000_000;
/// When the bulk package is published to the storage tier.
const BULK_PUBLISH_US: u64 = 2_000_000;
/// Bulk metadata re-announcement period (a retrying publisher: a one-shot
/// proposal during an election window would silently vanish).
const BULK_ANNOUNCE_US: u64 = 1_000_000;
/// The Laser bulk dataset the package targets.
const BULK_DATASET: &str = "assets";
/// Keys in the published bulk generation.
const BULK_KEYS: usize = 24;

/// The in-process configerator front-end plus the bookkeeping that links
/// its commits to trace contexts. Shared across `Sim::schedule` closures.
struct Front {
    svc: ConfigeratorService,
    strip: LandingStrip,
    tailer: GitTailer,
    /// Root contexts for submitted-but-not-landed diffs, in strip order.
    queued_roots: VecDeque<TraceCtx>,
    /// Distribution name → context of the `gitstore.commit` span, consumed
    /// by the tailer tick that first sees the commit.
    landed: HashMap<String, TraceCtx>,
    /// Distribution name → (expected payload, tailer-pickup context) for
    /// commits handed to Zeus but not yet observed by the mobile device.
    /// BTreeMap so the poll tick visits pending names deterministically;
    /// a newer commit to the same name supersedes the older entry.
    mobile_pending: BTreeMap<String, (Bytes, TraceCtx)>,
    /// The translation layer currently served to devices; rebound when the
    /// watched proxy applies a commit, then pushed to the server.
    translation: TranslationLayer,
    mserver: MobileConfigServer,
    mclient: MobileConfigClient,
}

/// The mobile schema field carrying config `name` ("trace/0" → "path_0").
fn mobile_field(name: &str) -> String {
    format!("path_{}", name.rsplit('/').next().unwrap_or(name))
}

/// Builds the device-facing stack: one schema with a string field per
/// config path, every field bound to a constant the poll tick rebinds as
/// commits reach the watched proxy.
fn mobile_stack() -> (TranslationLayer, MobileConfigServer, MobileConfigClient) {
    let fields: Vec<String> = (0..PATHS).map(|i| mobile_field(&dist_name(i))).collect();
    let field_refs: Vec<(&str, FieldType)> = fields
        .iter()
        .map(|f| (f.as_str(), FieldType::Str))
        .collect();
    let schema = MobileSchema::new("TraceApp", &field_refs);
    let mut translation = TranslationLayer::new();
    for f in &fields {
        translation.bind(
            "TraceApp",
            f,
            Binding::Constant(ParamValue::Str(String::new())),
        );
    }
    let mut mserver =
        MobileConfigServer::new(translation.clone(), Runtime::new(laser::Laser::new(16)));
    mserver.register_schema(schema.clone());
    let mclient = MobileConfigClient::new(UserContext::with_id(7), schema);
    (translation, mserver, mclient)
}

fn source_path(i: usize) -> String {
    format!("trace/{}.cconf", i % PATHS)
}

fn dist_name(i: usize) -> String {
    format!("trace/{}", i % PATHS)
}

/// Builds the fleet, schedules the commit workload and tailer ticks, and
/// runs to the horizon. Returns the finished simulation.
fn run_pipeline(seed: u64, chaos: bool) -> Sim {
    let topo = Topology::symmetric(3, 2, 8);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 2,
        subscriptions: (0..PATHS).map(dist_name).collect(),
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);

    // Carve the delivery-leg roles from the tail of the proxy pool, far
    // from the chaos crash candidates at the front: a PackageVessel
    // storage node, two Laser shard servers, and the proxy the mobile
    // poll tick watches for commit arrival.
    let np = zeus.proxies.len();
    let storage = zeus.proxies[np - 1];
    let laser_candidates = vec![zeus.proxies[np - 2], zeus.proxies[np - 3]];
    let watch_proxy = zeus.proxies[np - 4];
    sim.add_actor(
        storage,
        Box::new(StorageActor::new(PeerPolicy::LocalityAware)),
    );
    let laser_tier = LaserDeployment::install(
        &mut sim,
        &LaserDeployConfig {
            shards: 2,
            replicas: 1,
            candidates: laser_candidates,
            observers: zeus.observers.clone(),
            stream_datasets: Vec::new(),
            bulk_datasets: vec![BULK_DATASET.into()],
            memory_cap: 4096,
            pv_window: 4,
        },
    );

    let mut horizon = SimTime(FIRST_COMMIT_US + COMMITS as u64 * COMMIT_PERIOD_US + 10_000_000);
    if chaos {
        let chaos_cfg = ChaosConfig {
            crash_candidates: vec![
                ("leader".into(), zeus.ensemble[0]),
                ("follower".into(), zeus.ensemble[1]),
                ("observer".into(), zeus.observers[0]),
                ("observer".into(), zeus.observers[zeus.observers.len() / 2]),
                ("proxy".into(), zeus.proxies[0]),
            ],
            regions: 3,
            ..ChaosConfig::default()
        };
        let plan = ChaosPlan::generate(seed, &chaos_cfg);
        plan.apply(&mut sim);
        // Leave room after the last heal for failovers and convergence.
        horizon = horizon.max(plan.horizon + SimDuration::from_secs(15));
    }

    let (translation, mserver, mclient) = mobile_stack();
    let front = Rc::new(RefCell::new(Front {
        svc: ConfigeratorService::new(),
        strip: LandingStrip::new(),
        tailer: GitTailer::new(),
        queued_roots: VecDeque::new(),
        landed: HashMap::new(),
        mobile_pending: BTreeMap::new(),
        translation,
        mserver,
        mclient,
    }));

    // Commit workload: author a diff, submit it to the landing strip, and
    // land it a fixed review delay later.
    for i in 0..COMMITS {
        let at = SimTime(FIRST_COMMIT_US + i as u64 * COMMIT_PERIOD_US);
        let fr = Rc::clone(&front);
        sim.schedule(at, move |s| {
            let mut f = fr.borrow_mut();
            let now = s.now();
            let name = dist_name(i);
            let root = s.tracer_mut().start(
                name,
                HOP_MUTATOR,
                None,
                now,
                vec![("author", "alice".into()), ("rev", format!("v{i}"))],
            );
            let changes: BTreeMap<String, Option<String>> = [(
                source_path(i),
                Some(format!("export_if_last({})", 1000 + i)),
            )]
            .into_iter()
            .collect();
            let diff = SourceDiff::against(&f.svc, "alice", &format!("rev v{i}"), changes);
            f.strip.submit(diff);
            f.queued_roots.push_back(root);
        });
        let fr = Rc::clone(&front);
        sim.schedule(at + SimDuration::from_micros(LANDING_DELAY_US), move |s| {
            let mut f = fr.borrow_mut();
            let f = &mut *f;
            let Some(outcome) = f.strip.process_one(&mut f.svc) else {
                return;
            };
            let Some(root) = f.queued_roots.pop_front() else {
                return;
            };
            let now = s.now();
            match outcome {
                Ok(report) => {
                    let land = s.tracer_mut().child(
                        root,
                        HOP_LANDING,
                        None,
                        now,
                        vec![("author", "alice".into())],
                    );
                    let git = s.tracer_mut().child(
                        land,
                        HOP_GITSTORE,
                        None,
                        now,
                        vec![("configs", report.updated_configs.len().to_string())],
                    );
                    for name in report.updated_configs {
                        f.landed.insert(name, git);
                    }
                }
                Err((_, e)) => {
                    s.tracer_mut().annot(
                        root,
                        "landing.bounce",
                        None,
                        now,
                        vec![("error", e.to_string())],
                    );
                }
            }
        });
    }

    // Tailer ticks: drain the repository and hand fresh updates to Zeus,
    // re-rooting each commit's trace at its pickup span so the whole
    // distribution leg parents under the tailer.
    let zeus_handle = zeus.clone();
    let mut tick = TAILER_PERIOD_US;
    while tick < horizon.0 {
        let fr = Rc::clone(&front);
        let dep = zeus_handle.clone();
        sim.schedule(SimTime(tick), move |s| {
            let updates = {
                let mut f = fr.borrow_mut();
                let f = &mut *f;
                f.tailer.drain(&f.svc)
            };
            for u in updates {
                let now = s.now();
                let ctx = fr.borrow_mut().landed.remove(&u.name).map(|git| {
                    s.tracer_mut().child(
                        git,
                        HOP_TAILER,
                        None,
                        now,
                        vec![("bytes", u.data.len().to_string())],
                    )
                });
                if let Some(ctx) = ctx {
                    fr.borrow_mut()
                        .mobile_pending
                        .insert(u.name.clone(), (u.data.clone(), ctx));
                }
                dep.write_current_traced(s, now, &u.name, u.data, ctx);
            }
        });
        tick += TAILER_PERIOD_US;
    }

    // Mobile poll ticks: once the watched proxy has applied a pending
    // commit's payload, rebind that path's translation constant and poll
    // the device — the delta-sync reply closes the commit's waterfall
    // with a `mobile.pull` span carrying the transfer size.
    let mut tick = MOBILE_POLL_US;
    while tick < horizon.0 {
        let fr = Rc::clone(&front);
        sim.schedule(SimTime(tick), move |s| {
            let now = s.now();
            let mut f = fr.borrow_mut();
            let f = &mut *f;
            let ready: Vec<String> = f
                .mobile_pending
                .iter()
                .filter(|(name, (data, _))| {
                    s.actor::<zeus::ProxyActor>(watch_proxy)
                        .and_then(|p| p.read(name))
                        .is_some_and(|w| w.data == *data)
                })
                .map(|(name, _)| name.clone())
                .collect();
            for name in ready {
                let (data, ctx) = f.mobile_pending.remove(&name).unwrap();
                let field = mobile_field(&name);
                f.translation.bind(
                    "TraceApp",
                    &field,
                    Binding::Constant(ParamValue::Str(String::from_utf8_lossy(&data).into_owned())),
                );
                f.mserver.update_translation(f.translation.clone());
                let o = f.mclient.poll(&mut f.mserver);
                s.tracer_mut().child(
                    ctx,
                    HOP_MOBILE_PULL,
                    None,
                    now,
                    vec![
                        ("field", field),
                        ("bytes", o.bytes.to_string()),
                        ("changed", o.changed.to_string()),
                    ],
                );
            }
        });
        tick += MOBILE_POLL_US;
    }

    // Bulk leg: publish one package generation to the storage tier, root
    // its trace at the publish, and announce the metadata through Zeus
    // under that root until every shard server has activated it (the
    // announcements retry because a proposal during an election window is
    // silently lost; servers deduplicate repeats by version).
    let bulk_config = feed::bulk_path(BULK_DATASET);
    let entries: Vec<(String, f64)> = (0..BULK_KEYS)
        .map(|i| (format!("asset-{i}"), 1.0 + i as f64 / 1000.0))
        .collect();
    let data = Bytes::from(feed::encode_entries(&entries));
    let meta = PvDeployment::publish_bytes(
        &mut sim,
        storage,
        &bulk_config,
        1,
        data.clone(),
        256,
        SimTime(BULK_PUBLISH_US),
    );
    let bulk_root = sim.tracer_mut().start(
        bulk_config.clone(),
        HOP_PV_PUBLISH,
        Some(storage),
        SimTime(BULK_PUBLISH_US),
        vec![
            ("bytes", data.len().to_string()),
            ("pieces", meta.num_pieces.to_string()),
            ("version", "1".into()),
        ],
    );
    let meta_bytes = Bytes::from(feed::encode_bulk_meta(&meta));
    let mut tick = BULK_PUBLISH_US + 100_000;
    while tick < horizon.0 {
        let dep = zeus_handle.clone();
        let servers = laser_tier.servers.clone();
        let config = bulk_config.clone();
        let payload = meta_bytes.clone();
        sim.schedule(SimTime(tick), move |s| {
            let activated = servers.iter().all(|&n| {
                s.actor::<laser::server::LaserShardServer>(n)
                    .is_some_and(|a| a.activated_version(BULK_DATASET) >= 1)
            });
            if activated {
                return;
            }
            let now = s.now();
            dep.write_current_traced(s, now, &config, payload.clone(), Some(bulk_root));
        });
        tick += BULK_ANNOUNCE_US;
    }

    sim.run_until(horizon);
    sim
}

fn fmt_delta(d: SimDuration) -> String {
    format!(
        "+{}.{:06}s",
        d.as_micros() / 1_000_000,
        d.as_micros() % 1_000_000
    )
}

fn fmt_node(n: Option<NodeId>) -> String {
    match n {
        Some(n) => format!("n{}", n.0),
        None => "driver".to_string(),
    }
}

/// Renders one commit's propagation waterfall.
fn render_trace(sim: &Sim, trace: TraceId) -> String {
    let tracer = sim.tracer();
    let records = tracer.trace_records(trace);
    let Some(root) = records.first() else {
        return String::new();
    };
    let t0 = root.at;
    let label = tracer.label(trace).unwrap_or("?");

    // Spans grouped by hop name in first-occurrence order; fan-out hops
    // (appends, observer/proxy applies) collapse to one aggregate row.
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: HashMap<&'static str, Vec<&SpanRecord>> = HashMap::new();
    let mut annots: Vec<&SpanRecord> = Vec::new();
    for r in &records {
        match r.kind {
            RecordKind::Span => {
                if !groups.contains_key(r.name) {
                    order.push(r.name);
                }
                groups.entry(r.name).or_default().push(r);
            }
            RecordKind::Annot => annots.push(r),
        }
    }

    let spans: usize = groups.values().map(Vec::len).sum();
    let mut out = format!("trace {}: {label}  ({spans} spans)\n", trace.0);
    for name in order {
        let rs = &groups[name];
        let first = rs[0];
        let attrs: String = first
            .attrs
            .iter()
            .map(|(k, v)| format!(" {k}={v}"))
            .collect();
        if rs.len() == 1 {
            out.push_str(&format!(
                "  {:>12}  {:<6}  {name}{attrs}\n",
                fmt_delta(first.at - t0),
                fmt_node(first.node),
            ));
        } else {
            let last = rs.iter().map(|r| r.at).max().unwrap_or(first.at);
            out.push_str(&format!(
                "  {:>12}  {:<6}  {name} ×{}  (last {})\n",
                fmt_delta(first.at - t0),
                fmt_node(first.node),
                rs.len(),
                fmt_delta(last - t0),
            ));
        }
    }

    if !annots.is_empty() {
        // Tally annotations by name (plus drop reason), keeping first-seen
        // order for determinism.
        let mut tally_order: Vec<String> = Vec::new();
        let mut tally: HashMap<String, usize> = HashMap::new();
        for a in &annots {
            let reason = a
                .attrs
                .iter()
                .find(|(k, _)| *k == "reason")
                .map(|(_, v)| format!(" ({v})"))
                .unwrap_or_default();
            let key = format!("{}{reason}", a.name);
            if !tally.contains_key(&key) {
                tally_order.push(key.clone());
            }
            *tally.entry(key).or_insert(0) += 1;
        }
        let parts: Vec<String> = tally_order
            .iter()
            .map(|k| format!("{k} ×{}", tally[k]))
            .collect();
        out.push_str(&format!("  retries/faults: {}\n", parts.join(", ")));
    }
    out
}

/// `repro trace`: runs the seeded pipeline and prints one waterfall per
/// commit, plus a propagation-latency summary.
pub fn trace(seed: u64, chaos: bool) -> String {
    let sim = run_pipeline(seed, chaos);
    let mut out = format!(
        "propagation trace — seed {seed}{}\n\
         pipeline: mutator → landing strip → gitstore → tailer → zeus → mobile pull\n\
         bulk leg: packagevessel publish → zeus metadata → laser activation\n\
         fleet: 3 regions × 2 clusters × 8 servers, 5-node ensemble\n\n",
        if chaos { " (chaos overlay)" } else { "" },
    );
    for trace in sim.tracer().traces() {
        out.push_str(&render_trace(&sim, trace));
        out.push('\n');
    }
    out.push_str(&propagation_summary(&sim));
    out
}

/// One-line propagation percentile summary from the proxy-side histogram.
pub fn propagation_summary(sim: &Sim) -> String {
    match sim.metrics().histogram(zeus::metrics::PROPAGATION_S) {
        Some(h) => format!(
            "zeus.propagation_s: n={} p50={:.3}s p90={:.3}s p99={:.3}s p999={:.3}s max={:.3}s\n",
            h.count(),
            h.quantile_secs(0.50),
            h.quantile_secs(0.90),
            h.quantile_secs(0.99),
            h.quantile_secs(0.999),
            h.max_us() as f64 / 1e6,
        ),
        None => "zeus.propagation_s: no samples (no proxy applied any write)\n".to_string(),
    }
}

/// `repro metrics`: runs the seeded pipeline and dumps every counter and
/// histogram in Prometheus text exposition format (byte-deterministic).
pub fn metrics(seed: u64, chaos: bool) -> String {
    let sim = run_pipeline(seed, chaos);
    sim.metrics().export_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::trace::RecordKind;

    #[test]
    fn healthy_waterfall_covers_every_hop() {
        let sim = run_pipeline(7, false);
        let tracer = sim.tracer();
        let traces = tracer.traces();
        // One trace per commit plus the bulk package's trace.
        assert_eq!(traces.len(), COMMITS + 1);
        for &t in &traces {
            assert!(tracer.orphans(t).is_empty(), "orphan spans in trace {t:?}");
            let names: Vec<&str> = tracer
                .trace_records(t)
                .iter()
                .filter(|r| r.kind == RecordKind::Span)
                .map(|r| r.name)
                .collect();
            let is_bulk = tracer.label(t) == Some(feed::bulk_path(BULK_DATASET).as_str());
            let hops: &[&str] = if is_bulk {
                &[
                    HOP_PV_PUBLISH,
                    zeus::metrics::hops::LEADER_PROPOSE,
                    zeus::metrics::hops::QUORUM_COMMIT,
                    zeus::metrics::hops::OBSERVER_APPLY,
                    laser::metrics::hops::BULK_ACTIVATE,
                ]
            } else {
                &[
                    HOP_MUTATOR,
                    HOP_LANDING,
                    HOP_GITSTORE,
                    HOP_TAILER,
                    zeus::metrics::hops::LEADER_PROPOSE,
                    zeus::metrics::hops::QUORUM_COMMIT,
                    zeus::metrics::hops::OBSERVER_APPLY,
                    zeus::metrics::hops::PROXY_APPLY,
                    HOP_MOBILE_PULL,
                ]
            };
            for hop in hops {
                assert!(names.contains(hop), "trace {t:?} missing hop {hop}");
            }
            if is_bulk {
                // Both shard servers flip the generation atomically, each
                // contributing one activation span.
                let activations = names
                    .iter()
                    .filter(|n| **n == laser::metrics::hops::BULK_ACTIVATE)
                    .count();
                assert_eq!(activations, 2, "expected one activation per server");
            }
        }
        assert_eq!(
            traces
                .iter()
                .filter(|&&t| tracer.label(t) == Some(feed::bulk_path(BULK_DATASET).as_str()))
                .count(),
            1
        );
    }

    #[test]
    fn trace_output_is_deterministic_per_seed() {
        assert_eq!(trace(3, false), trace(3, false));
        assert_eq!(trace(3, true), trace(3, true));
    }

    #[test]
    fn metrics_export_is_deterministic_per_seed() {
        assert_eq!(metrics(5, true), metrics(5, true));
        assert!(metrics(5, false).contains("zeus_propagation_s"));
    }
}
