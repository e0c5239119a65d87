//! # configerator — holistic configuration management
//!
//! The core of the reproduction of *Holistic Configuration Management at
//! Facebook* (SOSP 2015): the tool suite of Figure 3, built on the
//! substrates in the sibling crates (`cdsl` for configuration-as-code,
//! `gitstore` for version control, `zeus` + `simnet` for distribution).
//!
//! * [`service`] — the config repository: sources + compiled JSON in one
//!   commit, the compiler pipeline, and the dependency service.
//! * [`review`] — Phabricator-style code review and Sandcastle CI.
//! * [`canary`] — the automated canary service: phased specs run against
//!   a fleet model, with [`rollout`] deciding every phase.
//! * [`rollout`] — the one phase/verdict engine: healthcheck predicates,
//!   incremental cohort-health verdicts, the phase-gated rollout state
//!   machine, and the durable mutator-landed revert path.
//! * [`landing`] — the landing strip that serializes commits and rejects
//!   only true conflicts (§3.6).
//! * [`tailer`] — the git tailer extracting committed config changes for
//!   distribution, and the lease-coordinated [`tailer::TailerGroup`] that
//!   keeps extraction running across tailer failures without duplicating
//!   or losing updates.
//! * [`mutator`] — the programmatic API used by automation tools.
//! * [`stack`] — the multi-region facade wiring everything together, with
//!   master failover (§3.7) and an in-process subscription bus.
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeMap;
//! use configerator::stack::Stack;
//!
//! let mut stack = Stack::new(2);
//! let mut changes = BTreeMap::new();
//! changes.insert(
//!     "cache/job.cconf".to_string(),
//!     Some("export_if_last({\"memory_mb\": 1024})".to_string()),
//! );
//! let id = stack.propose("alice", "tune cache", changes);
//! stack.approve(id, "bob").unwrap();
//! let out = stack.ship(id, None).unwrap();
//! assert_eq!(out.distributed, vec!["cache/job"]);
//! ```

pub mod canary;
pub mod landing;
pub mod metrics;
pub mod mutator;
pub mod review;
pub mod risk;
pub mod rollout;
pub mod service;
pub mod stack;
pub mod tailer;

pub use canary::{CanaryOutcome, CanaryService, CanarySpec, FleetModel, SyntheticFleet};
pub use landing::{LandError, LandingStrip, SourceDiff};
pub use mutator::Mutator;
pub use review::{Phabricator, ReviewPolicy, Sandcastle, TestReport};
pub use risk::{RiskAssessment, RiskModel, RiskSignal};
pub use rollout::{
    evaluate_phase, land_revert, land_source_revert, placement_diverse_cohort,
    previous_raw_content, previous_source_content, CohortHealth, PhaseVerdict, Rollout,
    RolloutPhase, RolloutSpec, RolloutVerdict,
};
pub use service::{
    Artifact, CommitReport, CompileFailure, CompileOptions, CompileStats, ConfigeratorService,
    DependencyService, ServiceError,
};
pub use stack::{ShipError, ShipOutcome, Stack};
pub use tailer::{ConfigUpdate, GitTailer, TailerError, TailerGroup, TailerLease};
