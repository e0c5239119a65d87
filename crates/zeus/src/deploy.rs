//! Fleet wiring: installs a complete Zeus deployment onto a simulation.
//!
//! Reproduces the paper's layout (§3.4): a consensus ensemble spread across
//! regions, several observers per cluster, and a proxy on every remaining
//! server, forming the three-level leader → observer → proxy tree.

use bytes::Bytes;
use simnet::{NodeId, Sim, SimTime, TraceCtx};

use crate::ensemble::EnsembleActor;
use crate::metrics::WRITES_UNROUTABLE;
use crate::observer::ObserverActor;
use crate::proxy::{ProxyActor, ProxyCmd};
use crate::types::ZeusMsg;

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Ensemble size (leader + followers). Must be odd and ≥ 1.
    pub ensemble_size: usize,
    /// Observers designated per cluster.
    pub observers_per_cluster: usize,
    /// Paths every proxy subscribes to at start.
    pub subscriptions: Vec<String>,
}

impl Default for DeployConfig {
    fn default() -> DeployConfig {
        DeployConfig {
            ensemble_size: 5,
            observers_per_cluster: 2,
            subscriptions: Vec::new(),
        }
    }
}

/// Handles to an installed deployment.
#[derive(Debug, Clone)]
pub struct ZeusDeployment {
    /// Ensemble member nodes; `ensemble[0]` is the initial leader.
    pub ensemble: Vec<NodeId>,
    /// Observer nodes, grouped per cluster in topology order.
    pub observers: Vec<NodeId>,
    /// Proxy nodes (every server that is neither ensemble nor observer).
    pub proxies: Vec<NodeId>,
}

impl ZeusDeployment {
    /// Installs ensemble, observers, and proxies onto `sim`.
    ///
    /// Ensemble members are spread round-robin across regions (first
    /// server of successive clusters); each cluster's next
    /// `observers_per_cluster` servers become observers; everything else
    /// runs a proxy.
    ///
    /// # Panics
    ///
    /// Panics if the topology is too small for the requested layout.
    pub fn install(sim: &mut Sim, cfg: &DeployConfig) -> ZeusDeployment {
        assert!(cfg.ensemble_size >= 1, "ensemble must be nonempty");
        let topo = sim.topology().clone();
        // Ensemble: first server of cluster 0, 1, 2, ... spread across
        // regions by taking one cluster per region round-robin.
        let mut ensemble: Vec<NodeId> = Vec::new();
        let mut region_cursor = 0usize;
        let mut per_region_cluster = vec![0usize; topo.num_regions()];
        while ensemble.len() < cfg.ensemble_size {
            let region = simnet::RegionId((region_cursor % topo.num_regions()) as u16);
            let clusters = topo.region_clusters(region);
            let ci = per_region_cluster[region.0 as usize];
            let cluster = clusters[ci % clusters.len()];
            per_region_cluster[region.0 as usize] += 1;
            let nodes = topo.cluster_nodes(cluster);
            assert!(!nodes.is_empty(), "empty cluster");
            ensemble.push(nodes[0]);
            region_cursor += 1;
        }
        ensemble.dedup();
        assert_eq!(
            ensemble.len(),
            cfg.ensemble_size,
            "topology too small for the requested ensemble"
        );
        let leader = ensemble[0];

        // Observers: per cluster, the first few non-ensemble servers.
        let mut observers = Vec::new();
        let mut observers_by_cluster: Vec<Vec<NodeId>> = Vec::new();
        for c in 0..topo.num_clusters() {
            let cluster = simnet::ClusterId(c as u32);
            let mut mine = Vec::new();
            for &n in topo.cluster_nodes(cluster) {
                if mine.len() >= cfg.observers_per_cluster {
                    break;
                }
                if !ensemble.contains(&n) {
                    mine.push(n);
                }
            }
            assert!(
                mine.len() == cfg.observers_per_cluster,
                "cluster {c} too small for {} observers",
                cfg.observers_per_cluster
            );
            observers.extend(&mine);
            observers_by_cluster.push(mine);
        }

        // Install ensemble actors.
        for &node in &ensemble {
            sim.add_actor(
                node,
                Box::new(EnsembleActor::new(
                    ensemble.clone(),
                    observers.clone(),
                    node,
                    leader,
                )),
            );
        }
        // Install observers.
        for &node in &observers {
            sim.add_actor(node, Box::new(ObserverActor::new(leader)));
        }
        // Install proxies everywhere else.
        let mut proxies = Vec::new();
        for node in topo.nodes() {
            if ensemble.contains(&node) || observers.contains(&node) {
                continue;
            }
            let cluster = topo.placement(node).cluster;
            let local_observers = observers_by_cluster[cluster.0 as usize].clone();
            sim.add_actor(
                node,
                Box::new(ProxyActor::new(local_observers, cfg.subscriptions.clone())),
            );
            proxies.push(node);
        }
        crate::metrics::register_help(sim.metrics_mut());
        ZeusDeployment {
            ensemble,
            observers,
            proxies,
        }
    }

    /// The initial leader node.
    pub fn initial_leader(&self) -> NodeId {
        self.ensemble[0]
    }

    /// Posts a config write to the deployment at time `at`, stamped with
    /// that origination time (propagation latency is measured against it).
    pub fn write_at(&self, sim: &mut Sim, at: SimTime, path: &str, data: impl Into<Bytes>) {
        let leader = self.initial_leader();
        let msg = ZeusMsg::Propose {
            path: path.to_string(),
            data: data.into(),
            origin: at,
            trace: None,
        };
        sim.post(at, leader, leader, Box::new(msg));
    }

    /// Schedules a config write at `at`, routed when it fires to whichever
    /// up ensemble member currently claims leadership (falling back to any
    /// up member, which forwards to its known leader). Unlike [`write_at`],
    /// which always targets the initial leader, this keeps a write workload
    /// flowing across leader crashes and elections.
    ///
    /// [`write_at`]: ZeusDeployment::write_at
    pub fn write_current(&self, sim: &mut Sim, at: SimTime, path: &str, data: impl Into<Bytes>) {
        self.write_current_traced(sim, at, path, data, None);
    }

    /// [`write_current`] with an optional trace context: the proposal (and
    /// every downstream hop) is attributed to the given trace.
    ///
    /// [`write_current`]: ZeusDeployment::write_current
    pub fn write_current_traced(
        &self,
        sim: &mut Sim,
        at: SimTime,
        path: &str,
        data: impl Into<Bytes>,
        trace: Option<TraceCtx>,
    ) {
        let ensemble = self.ensemble.clone();
        let path = path.to_string();
        let data = data.into();
        sim.schedule(at, move |s| {
            let target = ensemble
                .iter()
                .copied()
                .filter(|n| s.is_up(*n))
                .find(|n| {
                    s.actor::<EnsembleActor>(*n)
                        .is_some_and(EnsembleActor::is_leader)
                })
                .or_else(|| ensemble.iter().copied().find(|n| s.is_up(*n)));
            let Some(target) = target else {
                // Whole ensemble down: the write never enters the system
                // (and is therefore never acknowledged).
                s.metrics_mut().incr(WRITES_UNROUTABLE, 1);
                if let Some(t) = trace {
                    let now = s.now();
                    s.tracer_mut().annot(
                        t,
                        "zeus.unroutable",
                        None,
                        now,
                        vec![("reason", "ensemble_down".into())],
                    );
                }
                return;
            };
            let now = s.now();
            let msg = ZeusMsg::Propose {
                path: path.clone(),
                data: data.clone(),
                origin: now,
                trace,
            };
            s.post_traced(now, target, target, Box::new(msg), trace);
        });
    }

    /// Subscribes every proxy to `path` (driver-side convenience).
    pub fn subscribe_all(&self, sim: &mut Sim, path: &str) {
        self.subscribe_cohort(sim, path, &self.proxies.clone());
    }

    /// Subscribes only `cohort` to `path`: the scoped delivery under the
    /// canary pipeline's phase-gated blast radius — a staged artifact
    /// reaches exactly the designated canary servers, never the rest of
    /// the fleet, until the phase verdict promotes it.
    pub fn subscribe_cohort(&self, sim: &mut Sim, path: &str, cohort: &[NodeId]) {
        let now = sim.now();
        for &p in cohort {
            sim.post(
                now,
                p,
                p,
                Box::new(ProxyCmd::Subscribe {
                    path: path.to_string(),
                }),
            );
        }
    }

    /// Fraction of proxies whose cache holds `path` at a version ≥ the
    /// given payload check (by data equality).
    pub fn coverage(&self, sim: &Sim, path: &str, expected: &[u8]) -> f64 {
        Self::coverage_among(sim, &self.proxies, path, expected)
    }

    /// [`coverage`] over an explicit proxy subset — the phase-gate check of
    /// the canary pipeline (how much of *this cohort* holds the staged
    /// bytes) and its blast-radius invariant (no proxy *outside* the
    /// cohort ever does).
    ///
    /// [`coverage`]: ZeusDeployment::coverage
    pub fn coverage_among(sim: &Sim, proxies: &[NodeId], path: &str, expected: &[u8]) -> f64 {
        if proxies.is_empty() {
            return 0.0;
        }
        let mut have = 0usize;
        for &p in proxies {
            if let Some(actor) = sim.actor::<ProxyActor>(p) {
                if let Some(w) = actor.read(path) {
                    if &w.data[..] == expected {
                        have += 1;
                    }
                }
            }
        }
        have as f64 / proxies.len() as f64
    }
}
