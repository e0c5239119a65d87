//! # zeus — replicated config store with an observer push tree
//!
//! Zeus is the paper's "forked version of ZooKeeper, with many scalability
//! and performance enhancements" (§3.4). It is the distribution substrate
//! under Configerator: a consensus ensemble spread across regions, a
//! three-level high-fanout push tree (leader → observer → proxy), per-path
//! watches, and an on-disk cache at the leaves so applications keep running
//! when every Configerator component is down.
//!
//! The pieces:
//!
//! * [`types`] — zxids, writes, protocol messages.
//! * [`store`] — the replicated data store and watch table (pure state
//!   machines, unit-testable without a simulator).
//! * [`ensemble`] — leader/follower consensus with quorum commit, leader
//!   election, and catch-up.
//! * [`observer`] — full replicas, one group per cluster, that fan writes
//!   out to proxies holding watches.
//! * [`proxy`] — the per-server proxy with its crash-surviving
//!   [`proxy::DiskCache`] and observer failover.
//! * [`pull`] — an ACMS-style pull-model baseline for the push-vs-pull
//!   comparison of §3.4.
//! * [`deploy`] — wires a complete deployment onto a [`simnet::Sim`].
//!
//! # Examples
//!
//! ```
//! use simnet::prelude::*;
//! use zeus::deploy::{DeployConfig, ZeusDeployment};
//!
//! // 2 regions × 2 clusters × 12 servers.
//! let topo = Topology::symmetric(2, 2, 12);
//! let mut sim = Sim::new(topo, NetConfig::datacenter(), 7);
//! let cfg = DeployConfig {
//!     ensemble_size: 3,
//!     observers_per_cluster: 2,
//!     subscriptions: vec!["app/x.json".to_string()],
//! };
//! let zeus = ZeusDeployment::install(&mut sim, &cfg);
//! sim.run_for(SimDuration::from_secs(1));
//!
//! let now = sim.now();
//! zeus.write_at(&mut sim, now, "app/x.json", &b"{\"v\":1}"[..]);
//! sim.run_for(SimDuration::from_secs(2));
//! assert_eq!(zeus.coverage(&sim, "app/x.json", b"{\"v\":1}"), 1.0);
//! ```

pub mod audit;
pub mod deploy;
pub mod ensemble;
pub mod invariants;
pub mod metrics;
pub mod observer;
pub mod proxy;
pub mod pull;
pub mod store;
pub mod types;

pub use audit::{audit_proxies, repair, CanonicalSet, DriftFinding, DriftKind};
pub use deploy::{DeployConfig, ZeusDeployment};
pub use ensemble::EnsembleActor;
pub use invariants::{DiskCacheAvailability, MonotonicApplies, NoAckedWriteLost, ProxyConvergence};
pub use observer::ObserverActor;
pub use proxy::{DiskCache, ProxyActor, ProxyCmd};
pub use pull::{PullClientActor, PullMsg, PullServerActor};
pub use store::{ConfigStore, WatchTable};
pub use types::{Write, ZeusMsg, Zxid};
