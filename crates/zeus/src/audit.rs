//! Drift audit: fingerprints every proxy's on-disk cache against the
//! canonical artifacts and repairs divergence with targeted resyncs.
//!
//! The push tree keeps the fleet converged *when everything works*; the
//! audit is the backstop for the cases the protocol cannot see. §2 of the
//! paper opens with exactly this failure class: an automation tool "may
//! have a bug that leads to corrupted config distribution", and a leaf
//! cache that rots on disk is invisible to a subscription protocol keyed
//! on version numbers — a corrupted entry still advertises the *current*
//! zxid, so anti-entropy never asks for it again. The audit compares
//! actual bytes, not versions.
//!
//! Drift is classified three ways (each needs a different story to occur,
//! and a different signal to detect):
//!
//! * [`DriftKind::Missing`] — the proxy subscribes to a path but holds no
//!   entry (lost or truncated cache file). Version-level anti-entropy
//!   *would* eventually repair this; the audit just repairs it now.
//! * [`DriftKind::Stale`] — the entry's zxid is behind canonical (a cache
//!   rolled back by a bad restore, or a notify lost right before a long
//!   partition). Detectable from versions alone.
//! * [`DriftKind::Corrupt`] — the entry's zxid matches canonical but the
//!   bytes differ. Only a byte-level fingerprint catches this, and only a
//!   from-scratch resync ([`ProxyCmd::Resync`]) repairs it.

use std::collections::BTreeMap;

use bytes::Bytes;
use simnet::{NodeId, Sim};

use crate::ensemble::EnsembleActor;
use crate::metrics::audit as names;
use crate::proxy::{ProxyActor, ProxyCmd};
use crate::types::Zxid;

/// The canonical fingerprint set: `path → (zxid, bytes)` as they should be
/// everywhere. Built from the leader's replicated store (which in the full
/// stack holds exactly the gitstore-committed artifacts), or assembled by
/// hand from gitstore heads.
#[derive(Debug, Clone, Default)]
pub struct CanonicalSet {
    entries: BTreeMap<String, (Zxid, Bytes)>,
}

impl CanonicalSet {
    /// An empty set.
    pub fn new() -> CanonicalSet {
        CanonicalSet::default()
    }

    /// Records the canonical state for `path`.
    pub fn insert(&mut self, path: &str, zxid: Zxid, data: Bytes) {
        self.entries.insert(path.to_string(), (zxid, data));
    }

    /// Snapshots every path under `prefix` from the current leader's
    /// store. Returns `None` if no up ensemble member claims leadership.
    pub fn from_leader(sim: &Sim, ensemble: &[NodeId], prefix: &str) -> Option<CanonicalSet> {
        let leader = ensemble
            .iter()
            .copied()
            .filter(|&n| sim.is_up(n))
            .find(|&n| {
                sim.actor::<EnsembleActor>(n)
                    .is_some_and(EnsembleActor::is_leader)
            })?;
        let actor = sim.actor::<EnsembleActor>(leader)?;
        let mut set = CanonicalSet::new();
        for w in actor.store().entries() {
            if w.path.starts_with(prefix) {
                set.insert(&w.path, w.zxid, w.data.clone());
            }
        }
        Some(set)
    }

    /// The canonical `(zxid, bytes)` for `path`.
    pub fn get(&self, path: &str) -> Option<&(Zxid, Bytes)> {
        self.entries.get(path)
    }

    /// Number of fingerprinted paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How a cache entry diverges from canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftKind {
    /// Subscribed path with no cached entry.
    Missing,
    /// Cached zxid behind the canonical zxid.
    Stale,
    /// Cached zxid at (or past) canonical but bytes differ.
    Corrupt,
}

impl std::fmt::Display for DriftKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DriftKind::Missing => "missing",
            DriftKind::Stale => "stale",
            DriftKind::Corrupt => "corrupt",
        })
    }
}

/// One divergent `(node, path)` pair found by a sweep.
#[derive(Debug, Clone)]
pub struct DriftFinding {
    /// The proxy holding the divergent entry.
    pub node: NodeId,
    /// The divergent path.
    pub path: String,
    /// Classification.
    pub kind: DriftKind,
    /// The zxid the proxy holds (zero when missing).
    pub cached: Zxid,
    /// The canonical zxid.
    pub canonical: Zxid,
}

impl DriftFinding {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} at {} {} (cached {}, canonical {})",
            self.kind, self.node, self.path, self.cached, self.canonical
        )
    }
}

/// Sweeps `proxies`, fingerprinting every subscribed path that appears in
/// `canon`, and returns the divergences in deterministic (node, path)
/// order. Crashed proxies are still audited — the on-disk cache outlives
/// the process, which is exactly when silent rot goes unnoticed longest.
pub fn audit_proxies(sim: &Sim, proxies: &[NodeId], canon: &CanonicalSet) -> Vec<DriftFinding> {
    let mut findings = Vec::new();
    for &node in proxies {
        let Some(actor) = sim.actor::<ProxyActor>(node) else {
            continue;
        };
        let cache = actor.disk_cache();
        for path in actor.subscriptions() {
            let Some((canon_zxid, canon_bytes)) = canon.get(path) else {
                continue;
            };
            let kind = match cache.get(path) {
                None => Some((DriftKind::Missing, Zxid::ZERO)),
                Some(w) if w.zxid < *canon_zxid => Some((DriftKind::Stale, w.zxid)),
                Some(w) if w.data != *canon_bytes => Some((DriftKind::Corrupt, w.zxid)),
                Some(_) => None,
            };
            if let Some((kind, cached)) = kind {
                findings.push(DriftFinding {
                    node,
                    path: path.to_string(),
                    kind,
                    cached,
                    canonical: *canon_zxid,
                });
            }
        }
    }
    findings
}

/// Repairs each finding with a targeted [`ProxyCmd::Resync`] posted to the
/// divergent proxy, and records the per-class drift counters. Returns the
/// number of resyncs issued.
pub fn repair(sim: &mut Sim, findings: &[DriftFinding]) -> usize {
    let now = sim.now();
    for f in findings {
        let counter = match f.kind {
            DriftKind::Missing => names::DRIFT_MISSING,
            DriftKind::Stale => names::DRIFT_STALE,
            DriftKind::Corrupt => names::DRIFT_CORRUPT,
        };
        sim.metrics_mut().incr(counter, 1);
        sim.metrics_mut().incr(names::REPAIRS, 1);
        sim.post(
            now,
            f.node,
            f.node,
            Box::new(ProxyCmd::Resync {
                path: f.path.clone(),
            }),
        );
    }
    findings.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{DeployConfig, ZeusDeployment};
    use crate::types::Write;
    use simnet::prelude::*;

    fn converged_fleet() -> (Sim, ZeusDeployment) {
        let topo = Topology::symmetric(2, 2, 8);
        let mut sim = Sim::new(topo, NetConfig::datacenter(), 41);
        let cfg = DeployConfig {
            ensemble_size: 3,
            observers_per_cluster: 2,
            subscriptions: (0..3).map(|i| format!("audit/{i}")).collect(),
        };
        let zeus = ZeusDeployment::install(&mut sim, &cfg);
        sim.run_for(SimDuration::from_secs(1));
        for i in 0..3 {
            let now = sim.now();
            zeus.write_current(&mut sim, now, &format!("audit/{i}"), format!("v1-{i}"));
        }
        sim.run_for(SimDuration::from_secs(3));
        for i in 0..3 {
            assert_eq!(
                zeus.coverage(&sim, &format!("audit/{i}"), format!("v1-{i}").as_bytes()),
                1.0,
                "fleet must converge before seeding drift"
            );
        }
        (sim, zeus)
    }

    #[test]
    fn clean_fleet_audits_clean() {
        let (sim, zeus) = converged_fleet();
        let canon = CanonicalSet::from_leader(&sim, &zeus.ensemble, "audit/").unwrap();
        assert_eq!(canon.len(), 3);
        assert!(audit_proxies(&sim, &zeus.proxies, &canon).is_empty());
    }

    #[test]
    fn classifies_missing_stale_and_corrupt() {
        let (mut sim, zeus) = converged_fleet();
        let canon = CanonicalSet::from_leader(&sim, &zeus.ensemble, "audit/").unwrap();
        let (p0, p1, p2) = (zeus.proxies[0], zeus.proxies[1], zeus.proxies[2]);

        let cache = sim.actor_mut::<ProxyActor>(p0).unwrap().disk_cache_mut();
        assert!(cache.seed_missing("audit/0"));
        let cache = sim.actor_mut::<ProxyActor>(p1).unwrap().disk_cache_mut();
        cache.seed_stale(Write {
            zxid: Zxid {
                epoch: 1,
                counter: 0,
            },
            path: "audit/1".into(),
            data: Bytes::from_static(b"old"),
            origin: SimTime::ZERO,
            trace: None,
        });
        let cache = sim.actor_mut::<ProxyActor>(p2).unwrap().disk_cache_mut();
        assert!(cache.seed_corruption("audit/2", Bytes::from_static(b"rot")));

        let findings = audit_proxies(&sim, &zeus.proxies, &canon);
        assert_eq!(findings.len(), 3);
        let kind_of = |node: NodeId| {
            findings
                .iter()
                .find(|f| f.node == node)
                .map(|f| f.kind)
                .unwrap()
        };
        assert_eq!(kind_of(p0), DriftKind::Missing);
        assert_eq!(kind_of(p1), DriftKind::Stale);
        assert_eq!(kind_of(p2), DriftKind::Corrupt);
    }

    #[test]
    fn corruption_survives_anti_entropy_but_not_repair() {
        let (mut sim, zeus) = converged_fleet();
        let canon = CanonicalSet::from_leader(&sim, &zeus.ensemble, "audit/").unwrap();
        let p = zeus.proxies[0];
        let cache = sim.actor_mut::<ProxyActor>(p).unwrap().disk_cache_mut();
        assert!(cache.seed_corruption("audit/1", Bytes::from_static(b"rot")));

        // Anti-entropy alone never heals a same-zxid corruption: the
        // re-subscribe advertises the current version and gets no reply.
        sim.run_for(SimDuration::from_secs(5));
        let findings = audit_proxies(&sim, &zeus.proxies, &canon);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, DriftKind::Corrupt);

        // A targeted resync re-fetches canonical bytes.
        assert_eq!(repair(&mut sim, &findings), 1);
        sim.run_for(SimDuration::from_secs(2));
        assert!(audit_proxies(&sim, &zeus.proxies, &canon).is_empty());
        assert_eq!(sim.metrics().counter(names::DRIFT_CORRUPT), 1);
        assert_eq!(sim.metrics().counter(names::REPAIRS), 1);
        assert_eq!(
            sim.metrics().counter(crate::metrics::PROXY_RESYNCS),
            1,
            "repair goes through the proxy resync verb"
        );
    }
}
