//! `repro audit`: the drift auditor — seed cache faults across the fleet,
//! detect them by fingerprinting against the canonical gitstore state,
//! classify, and repair by targeted resync.
//!
//! The subscription protocol keeps a *healthy* fleet converged, but it is
//! version-keyed end to end: a proxy whose on-disk cache rots underneath it
//! (bit flips, truncated writeback) still advertises the current version,
//! so anti-entropy never re-fetches the bytes; a Laser server whose
//! activated generation is silently rolled back still holds a current feed
//! cursor, so the observer never replays the flip. Both classes are
//! invisible to the protocol and permanent without an auditor.
//!
//! The audit closes the loop: snapshot the leader's canonical `path →
//! (version, bytes)` set, fingerprint every proxy's cache against it,
//! classify each divergence ([`DriftKind::Missing`] / [`DriftKind::Stale`]
//! / [`DriftKind::Corrupt`]), and repair with a targeted
//! [`zeus::proxy::ProxyCmd::Resync`]; Laser activation drift is detected
//! by comparing activated generations across the tier and repaired with
//! [`LaserCtl::Resync`]. The experiment seeds every fault class, requires
//! detection to match the seeded set *exactly* (no false positives on a
//! converged fleet, no misses), and requires a clean final sweep.

use std::collections::BTreeSet;

use bytes::Bytes;
use laser::deploy::{LaserDeployConfig, LaserDeployment};
use laser::server::{LaserCtl, LaserShardServer};
use laser::{feed, metrics as lm};
use packagevessel::deploy::PvDeployment;
use packagevessel::storage::{PeerPolicy, StorageActor};
use simnet::prelude::*;
use zeus::audit::{audit_proxies, repair, CanonicalSet, DriftKind};
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::proxy::ProxyActor;
use zeus::types::{Write, Zxid};

use crate::{verdict, Gate, Report};

/// Config paths under audit.
const PATHS: usize = 4;
/// When faults are seeded (fleet fully converged well before this).
/// Deliberately off the 500 ms anti-entropy grid: a seed landing exactly
/// on a resubscribe tick lets the protocol heal the missing/stale classes
/// in the same instant, before the audit can observe them.
const SEED_AT_US: u64 = 4_100_000;
/// Detection sweep: 1 ms after seeding, long before the next 500 ms
/// anti-entropy tick could mask the (self-healing) missing/stale classes.
const DETECT_AT_US: u64 = 4_101_000;
/// Final verification sweep.
const VERIFY_AT_US: u64 = 7_000_000;
const HORIZON_US: u64 = 7_200_000;

fn fleet_path(i: usize) -> String {
    format!("fleet/{i}")
}

fn v2_bytes(i: usize) -> Bytes {
    Bytes::from(format!("v2-{i}"))
}

/// One seeded or detected drift instance, in canonical string form so the
/// seeded and detected sets compare exactly.
fn key(node: NodeId, path: &str, kind: DriftKind) -> String {
    format!("{node} {path} {kind}")
}

/// Everything one run produces.
pub struct AuditOutcome {
    /// Seeded proxy-cache faults, canonical form.
    pub seeded: BTreeSet<String>,
    /// Faults the detection sweep found, canonical form.
    pub detected: BTreeSet<String>,
    /// Laser servers whose activation was rolled back / detected stale.
    pub laser_seeded: usize,
    pub laser_detected: usize,
    /// Findings left at the final sweep (proxy caches).
    pub remaining: usize,
    /// Laser servers still below the tier's newest generation at the end.
    pub laser_remaining: usize,
    /// Counters worth reporting.
    pub counters: Vec<(&'static str, u64)>,
}

impl AuditOutcome {
    /// Detection exact, repair complete.
    pub fn ok(&self) -> bool {
        !self.seeded.is_empty()
            && self.seeded == self.detected
            && self.laser_seeded > 0
            && self.laser_detected == self.laser_seeded
            && self.remaining == 0
            && self.laser_remaining == 0
    }
}

pub fn run(seed: u64) -> AuditOutcome {
    let topo = Topology::symmetric(2, 2, 8);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let zeus = ZeusDeployment::install(
        &mut sim,
        &DeployConfig {
            ensemble_size: 3,
            observers_per_cluster: 1,
            subscriptions: (0..PATHS).map(fleet_path).collect(),
        },
    );
    // Carve the Laser tier and a PV storage node out of the proxy pool;
    // what remains are the cache proxies under audit.
    let mut pool = zeus.proxies.clone();
    let storage = pool.remove(0);
    let candidates: Vec<NodeId> = (0..4).map(|_| pool.remove(0)).collect();
    let proxies = pool;
    sim.add_actor(
        storage,
        Box::new(StorageActor::new(PeerPolicy::LocalityAware)),
    );
    let laser = LaserDeployment::install(
        &mut sim,
        &LaserDeployConfig {
            shards: 2,
            replicas: 2,
            candidates,
            observers: zeus.observers.clone(),
            stream_datasets: Vec::new(),
            bulk_datasets: vec!["ranker".into()],
            memory_cap: 4096,
            pv_window: 4,
        },
    );

    // Two generations of fleet config: the stale class needs real history
    // (a stale cache holds v1 bytes under v1's version — a *consistent*
    // past state, which only comparison against the canonical set reveals).
    for i in 0..PATHS {
        let p = fleet_path(i);
        zeus.write_current(&mut sim, SimTime(300_000), &p, format!("v1-{i}"));
        zeus.write_current(&mut sim, SimTime(1_200_000), &p, v2_bytes(i));
    }
    // One bulk generation for the Laser tier, re-announced until it lands.
    let bulk_cfg = feed::bulk_path("ranker");
    let entries: Vec<(String, f64)> = (0..32).map(|i| (format!("item-{i}"), 1.0)).collect();
    let meta = PvDeployment::publish_bytes(
        &mut sim,
        storage,
        &bulk_cfg,
        1,
        Bytes::from(feed::encode_entries(&entries)),
        256,
        SimTime(500_000),
    );
    for at in [600_000u64, 1_100_000, 1_600_000, 2_100_000] {
        zeus.write_current(
            &mut sim,
            SimTime(at),
            &bulk_cfg,
            feed::encode_bulk_meta(&meta),
        );
    }

    // Seed every drift class on a converged fleet.
    let seeded_cell = std::rc::Rc::new(std::cell::RefCell::new(BTreeSet::new()));
    let laser_seeded_cell = std::rc::Rc::new(std::cell::RefCell::new(0usize));
    {
        let targets = proxies[..6].to_vec();
        let servers = laser.servers.clone();
        let seeded = std::rc::Rc::clone(&seeded_cell);
        let laser_seeded = std::rc::Rc::clone(&laser_seeded_cell);
        sim.schedule(SimTime(SEED_AT_US), move |s| {
            let mut sd = seeded.borrow_mut();
            for (slot, i) in [(0usize, 0usize), (1, 1)] {
                let p = targets[slot];
                if let Some(a) = s.actor_mut::<ProxyActor>(p) {
                    if a.disk_cache_mut()
                        .seed_corruption(&fleet_path(i), Bytes::from_static(b"bitrot"))
                    {
                        sd.insert(key(p, &fleet_path(i), DriftKind::Corrupt));
                    }
                }
            }
            for (slot, i) in [(2usize, 2usize), (3, 3)] {
                let p = targets[slot];
                if let Some(a) = s.actor_mut::<ProxyActor>(p) {
                    if a.disk_cache_mut().seed_missing(&fleet_path(i)) {
                        sd.insert(key(p, &fleet_path(i), DriftKind::Missing));
                    }
                }
            }
            for (slot, i) in [(4usize, 0usize), (5, 1)] {
                let p = targets[slot];
                if let Some(a) = s.actor_mut::<ProxyActor>(p) {
                    a.disk_cache_mut().seed_stale(Write {
                        zxid: Zxid {
                            epoch: 1,
                            counter: 1,
                        },
                        path: fleet_path(i),
                        data: Bytes::from(format!("v1-{i}")),
                        origin: SimTime::ZERO,
                        trace: None,
                    });
                    sd.insert(key(p, &fleet_path(i), DriftKind::Stale));
                }
            }
            let mut ls = laser_seeded.borrow_mut();
            for &n in &servers[..2] {
                if let Some(srv) = s.actor_mut::<LaserShardServer>(n) {
                    if srv.seed_stale_activation("ranker") {
                        *ls += 1;
                    }
                }
            }
        });
    }

    // Detection sweep: fingerprint, classify, repair.
    let detected_cell = std::rc::Rc::new(std::cell::RefCell::new(BTreeSet::new()));
    let laser_detected_cell = std::rc::Rc::new(std::cell::RefCell::new(0usize));
    {
        let ensemble = zeus.ensemble.clone();
        let proxies = proxies.clone();
        let servers = laser.servers.clone();
        let detected = std::rc::Rc::clone(&detected_cell);
        let laser_detected = std::rc::Rc::clone(&laser_detected_cell);
        sim.schedule(SimTime(DETECT_AT_US), move |s| {
            let canon =
                CanonicalSet::from_leader(s, &ensemble, "fleet/").expect("leader up (no chaos)");
            let findings = audit_proxies(s, &proxies, &canon);
            let mut d = detected.borrow_mut();
            for f in &findings {
                d.insert(key(f.node, &f.path, f.kind));
            }
            repair(s, &findings);
            // Laser tier: a server below the tier's newest activated
            // generation with a current feed cursor is activation drift.
            let newest = servers
                .iter()
                .filter_map(|&n| s.actor::<LaserShardServer>(n))
                .map(|srv| srv.activated_version("ranker"))
                .max()
                .unwrap_or(0);
            let mut ld = laser_detected.borrow_mut();
            let now = s.now();
            for &n in &servers {
                let stale = s
                    .actor::<LaserShardServer>(n)
                    .is_some_and(|srv| srv.activated_version("ranker") < newest);
                if stale {
                    *ld += 1;
                    s.post(
                        now,
                        n,
                        n,
                        Box::new(LaserCtl::Resync {
                            path: bulk_cfg.clone(),
                        }),
                    );
                }
            }
        });
    }

    // Final verification sweep.
    let remaining_cell = std::rc::Rc::new(std::cell::RefCell::new((0usize, 0usize)));
    {
        let ensemble = zeus.ensemble.clone();
        let proxies = proxies.clone();
        let servers = laser.servers.clone();
        let remaining = std::rc::Rc::clone(&remaining_cell);
        sim.schedule(SimTime(VERIFY_AT_US), move |s| {
            let canon =
                CanonicalSet::from_leader(s, &ensemble, "fleet/").expect("leader up (no chaos)");
            let findings = audit_proxies(s, &proxies, &canon);
            let newest = servers
                .iter()
                .filter_map(|&n| s.actor::<LaserShardServer>(n))
                .map(|srv| srv.activated_version("ranker"))
                .max()
                .unwrap_or(0);
            let laser_behind = servers
                .iter()
                .filter(|&&n| {
                    s.actor::<LaserShardServer>(n)
                        .is_some_and(|srv| srv.activated_version("ranker") < newest)
                })
                .count();
            *remaining.borrow_mut() = (findings.len(), laser_behind);
        });
    }

    sim.run_until(SimTime(HORIZON_US));

    let (remaining, laser_remaining) = *remaining_cell.borrow();
    let counters = [
        zeus::metrics::audit::DRIFT_MISSING,
        zeus::metrics::audit::DRIFT_STALE,
        zeus::metrics::audit::DRIFT_CORRUPT,
        zeus::metrics::audit::REPAIRS,
        zeus::metrics::PROXY_RESYNCS,
        lm::RESYNCS,
    ]
    .iter()
    .map(|&n| (n, sim.metrics().counter(n)))
    .collect();
    let outcome = AuditOutcome {
        seeded: seeded_cell.borrow().clone(),
        detected: detected_cell.borrow().clone(),
        laser_seeded: *laser_seeded_cell.borrow(),
        laser_detected: *laser_detected_cell.borrow(),
        remaining,
        laser_remaining,
        counters,
    };
    outcome
}

/// `repro audit`: one seeded run, reported deterministically
/// (golden-gated by `repro check`).
pub fn report(seed: u64) -> Report {
    let o = run(seed);
    let mut out = format!(
        "drift audit — seed {seed}\n\
         fleet: 2 regions × 2 clusters × 8 servers; 3-node ensemble, 1 observer/cluster\n\
         laser: 2 shards × 2 replicas, 1 bulk dataset; {PATHS} audited config paths\n\
         seeded at {:.1}s on a converged fleet; detected at +1ms; verified at {:.1}s\n\n",
        SEED_AT_US as f64 / 1e6,
        VERIFY_AT_US as f64 / 1e6,
    );
    out.push_str("seeded proxy-cache drift:\n");
    for s in &o.seeded {
        out.push_str(&format!("  {s}\n"));
    }
    out.push_str(&format!(
        "seeded laser activation drift: {} servers\n\ndetected:\n",
        o.laser_seeded
    ));
    for d in &o.detected {
        let mark = if o.seeded.contains(d) {
            ""
        } else {
            "  (FALSE POSITIVE)"
        };
        out.push_str(&format!("  {d}{mark}\n"));
    }
    for s in o.seeded.difference(&o.detected) {
        out.push_str(&format!("  MISSED: {s}\n"));
    }
    out.push_str(&format!(
        "detected laser activation drift: {} servers\n\ncounters:\n",
        o.laser_detected
    ));
    for (n, v) in &o.counters {
        out.push_str(&format!("  {n:<24} {v}\n"));
    }
    out.push_str(&format!(
        "\nfinal sweep: {} proxy findings, {} laser servers behind\n\
         detection: {} — {}/{} proxy faults, {}/{} laser faults, {} false positives\n\
         repair: {} — fleet {}\n\noverall: {}\n",
        o.remaining,
        o.laser_remaining,
        verdict(o.detected == o.seeded && o.laser_detected == o.laser_seeded),
        o.detected.intersection(&o.seeded).count(),
        o.seeded.len(),
        o.laser_detected,
        o.laser_seeded,
        o.detected.difference(&o.seeded).count(),
        verdict(o.remaining == 0 && o.laser_remaining == 0),
        if o.remaining == 0 && o.laser_remaining == 0 {
            "clean"
        } else {
            "still drifted"
        },
        verdict(o.ok()),
    ));
    Report::new(
        out,
        vec![Gate::new("overall", o.ok(), "detection and repair")],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_and_repairs_every_seeded_fault() {
        let o = run(2);
        assert_eq!(o.seeded.len(), 6, "all six proxy faults seeded");
        assert_eq!(o.laser_seeded, 2, "both laser faults seeded");
        assert_eq!(
            o.detected, o.seeded,
            "detection must match the seeded set exactly (no misses, no false positives)"
        );
        assert_eq!(o.laser_detected, 2);
        assert_eq!(o.remaining, 0, "final proxy sweep clean");
        assert_eq!(o.laser_remaining, 0, "laser tier re-activated");
        assert!(o.ok());
    }

    #[test]
    fn audit_report_is_deterministic_per_seed() {
        assert_eq!(report(1).text, report(1).text);
    }
}
