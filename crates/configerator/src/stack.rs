//! The full configuration-management stack: review → CI → canary →
//! landing → distribution, with multi-region fault tolerance.
//!
//! This is the facade a product engineer (or automation tool) interacts
//! with, wiring together every component of Figure 3. It also implements
//! §3.7: "Every component in Figure 3 has built-in redundancy across
//! multiple regions. One region serves as the master. Each backup region
//! has its own copy of the git repository, and receives updates from the
//! master region. ... Configerator supports failover both within a region
//! and across regions."

use std::collections::{BTreeMap, HashMap};

use crate::canary::{CanaryOutcome, CanaryService, CanarySpec, FleetModel};
use crate::landing::{LandError, LandingStrip, SourceDiff};
use crate::review::{Phabricator, ReviewError, ReviewPolicy, Sandcastle};
use crate::risk::{RiskAssessment, RiskModel};
use crate::rollout::PhaseVerdict;
use crate::service::{CommitReport, ConfigeratorService};
use crate::tailer::{ConfigUpdate, GitTailer};

/// A subscriber callback invoked with each config update (the in-process
/// analogue of an application reading through the Configerator proxy).
pub type Subscriber = Box<dyn FnMut(&ConfigUpdate)>;

/// Why a ship attempt failed.
#[derive(Debug)]
pub enum ShipError {
    /// The review system refused (not approved, tests missing…).
    Review(ReviewError),
    /// Automated canary testing failed; the change never landed.
    Canary(Box<CanaryOutcome>),
    /// The landing strip bounced the diff.
    Land(LandError),
}

impl std::fmt::Display for ShipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipError::Review(e) => write!(f, "review: {e}"),
            ShipError::Canary(o) => {
                let failed = o
                    .phases
                    .iter()
                    .find(|p| p.verdict == PhaseVerdict::Rollback)
                    .map(|p| p.name.as_str())
                    .unwrap_or("?");
                write!(f, "canary failed in {failed}")
            }
            ShipError::Land(e) => write!(f, "landing: {e}"),
        }
    }
}

impl std::error::Error for ShipError {}

/// A successful ship.
#[derive(Debug)]
pub struct ShipOutcome {
    /// The commit report from the master region.
    pub report: CommitReport,
    /// The canary outcome, if a canary ran.
    pub canary: Option<CanaryOutcome>,
    /// Config names distributed to subscribers.
    pub distributed: Vec<String>,
}

/// The multi-region configuration-management stack.
pub struct Stack {
    regions: Vec<ConfigeratorService>,
    region_ok: Vec<bool>,
    master: usize,
    /// The review system.
    pub phab: Phabricator,
    /// The CI sandbox.
    pub sandcastle: Sandcastle,
    /// The landing strip.
    pub landing: LandingStrip,
    /// The canary service.
    pub canary: CanaryService,
    tailer: GitTailer,
    canary_specs: HashMap<String, CanarySpec>,
    default_spec: Option<CanarySpec>,
    subscribers: HashMap<String, Vec<Subscriber>>,
    risk: RiskModel,
    risk_log: HashMap<u64, RiskAssessment>,
}

impl Stack {
    /// Creates a stack with `regions` replicas (≥ 1); region 0 starts as
    /// master.
    pub fn new(regions: usize) -> Stack {
        assert!(regions >= 1, "need at least one region");
        Stack {
            regions: (0..regions).map(|_| ConfigeratorService::new()).collect(),
            region_ok: vec![true; regions],
            master: 0,
            phab: Phabricator::new(),
            sandcastle: Sandcastle::new(),
            landing: LandingStrip::new(),
            canary: CanaryService,
            tailer: GitTailer::new(),
            canary_specs: HashMap::new(),
            default_spec: None,
            subscribers: HashMap::new(),
            risk: RiskModel::new(),
            risk_log: HashMap::new(),
        }
    }

    /// Overrides the review policy.
    pub fn set_policy(&mut self, policy: ReviewPolicy) {
        self.phab = Phabricator::with_policy(policy);
    }

    /// Sets the default canary spec applied to every shipped config.
    pub fn set_default_canary(&mut self, spec: CanarySpec) {
        self.default_spec = Some(spec);
    }

    /// Associates a canary spec with one config name.
    pub fn set_canary_spec(&mut self, config: &str, spec: CanarySpec) {
        self.canary_specs.insert(config.to_string(), spec);
    }

    /// The current master region's service.
    pub fn master(&self) -> &ConfigeratorService {
        &self.regions[self.master]
    }

    /// Mutable access to the master service (for Mutator-style automation
    /// writes; distribution still requires [`Stack::pump`]).
    pub fn master_mut(&mut self) -> &mut ConfigeratorService {
        &mut self.regions[self.master]
    }

    /// Index of the current master region.
    pub fn master_region(&self) -> usize {
        self.master
    }

    /// A backup region's service (for replication tests).
    pub fn region(&self, i: usize) -> &ConfigeratorService {
        &self.regions[i]
    }

    /// Fails a region. If it was the master, the first healthy region is
    /// promoted (§3.7's cross-region failover).
    ///
    /// # Panics
    ///
    /// Panics if no healthy region remains.
    pub fn fail_region(&mut self, i: usize) {
        self.region_ok[i] = false;
        if i == self.master {
            self.master = self
                .region_ok
                .iter()
                .position(|ok| *ok)
                .expect("at least one healthy region required");
            // The new master may be behind the failed one if the failure
            // raced a replication; tailer cursors are per-stack and carry
            // over (they track content, not region identity).
        }
    }

    /// Recovers a region by re-cloning from the current master.
    pub fn recover_region(&mut self, i: usize) {
        self.regions[i] = self.regions[self.master].clone();
        self.region_ok[i] = true;
    }

    /// Registers a subscriber for config `name`. The callback runs on
    /// every subsequent update of that config.
    pub fn subscribe(&mut self, name: &str, f: impl FnMut(&ConfigUpdate) + 'static) {
        self.subscribers
            .entry(name.to_string())
            .or_default()
            .push(Box::new(f));
    }

    /// Submits a diff: runs Sandcastle and opens a review with the report
    /// attached. Returns the review id.
    pub fn propose(
        &mut self,
        author: &str,
        message: &str,
        changes: BTreeMap<String, Option<String>>,
    ) -> u64 {
        let diff = SourceDiff::against(self.master(), author, message, changes);
        let report = self.sandcastle.run(self.master(), &diff);
        // Risk assessment (§8 future work, implemented): score the diff
        // against each touched config's history and attach it to the
        // review for the reviewer to see.
        let assessment = self.assess_risk(&diff);
        let id = self.phab.submit(diff);
        self.phab
            .attach_report(id, report)
            .expect("review just created");
        self.risk_log.insert(id, assessment);
        id
    }

    /// The risk assessment attached to a review at propose time.
    pub fn risk_of(&self, id: u64) -> Option<&RiskAssessment> {
        self.risk_log.get(&id)
    }

    /// Scores a diff: the maximum per-config risk across touched entries.
    fn assess_risk(&self, diff: &SourceDiff) -> RiskAssessment {
        let svc = self.master();
        let mut best = RiskAssessment {
            score: 0.0,
            signals: Vec::new(),
        };
        for (path, content) in &diff.changes {
            if !path.ends_with(".cconf") {
                continue;
            }
            let line_changes = match (svc.read_source(path), content) {
                (Some(old), Some(new)) => {
                    gitstore::diff::diff_stat(&old, new).line_changes() as u32
                }
                (None, Some(new)) => new.lines().count() as u32,
                (Some(old), None) => old.lines().count() as u32,
                (None, None) => 0,
            };
            let dependents = self
                .master()
                .dependency()
                .dependents_of([path.as_str()])
                .len();
            let a = self.risk.assess(
                path,
                self.clock_estimate(),
                line_changes,
                &diff.author,
                dependents,
            );
            if a.score > best.score {
                best = a;
            }
        }
        best
    }

    /// A monotone timestamp for the risk model (the landed-commit count).
    fn clock_estimate(&self) -> u64 {
        self.landing.stats().landed
    }

    /// Records an approval on a review.
    pub fn approve(&mut self, id: u64, reviewer: &str) -> Result<(), ReviewError> {
        self.phab.approve(id, reviewer)
    }

    /// Ships an approved review: canary-tests the change against `fleet`,
    /// lands it through the landing strip, replicates to backup regions,
    /// and distributes updates to subscribers.
    pub fn ship(
        &mut self,
        id: u64,
        fleet: Option<&mut dyn FleetModel>,
    ) -> Result<ShipOutcome, ShipError> {
        let diff = self.phab.take_for_landing(id).map_err(ShipError::Review)?;

        // Canary before commit: "If the new config passes all testing
        // phases, the canary service asks the remote Landing Strip to
        // commit the change into the master git repository" (§3.3).
        let canary_outcome = if let Some(fleet) = fleet {
            let compiled = self.regions[self.master]
                .check_changes(&diff.changes)
                .map_err(|e| ShipError::Land(LandError::Service(e)))?;
            let mut last = None;
            for cfg in &compiled {
                let name = crate::service::config_name(&format!(
                    "{}{}",
                    crate::service::SOURCE_PREFIX,
                    cfg.path
                ))
                .unwrap_or_else(|| cfg.path.clone());
                let spec = self
                    .canary_specs
                    .get(&name)
                    .or(self.default_spec.as_ref())
                    .cloned();
                if let Some(spec) = spec {
                    let outcome = self.canary.run(&spec, &cfg.json, fleet);
                    if !outcome.passed {
                        return Err(ShipError::Canary(Box::new(outcome)));
                    }
                    last = Some(outcome);
                }
            }
            last
        } else {
            None
        };

        self.landing.submit(diff);
        let result = self
            .landing
            .process_one(&mut self.regions[self.master])
            .expect("just submitted");
        let report = match result {
            Ok(r) => r,
            Err((_, e)) => return Err(ShipError::Land(e)),
        };
        self.phab.mark_landed(id).expect("review exists");
        // Feed the risk model with what actually landed.
        let landed = self.phab.review(id).expect("review exists");
        let ts = self.clock_estimate();
        for (path, content) in landed.diff.changes.clone() {
            if path.ends_with(".cconf") {
                let lines = content.map(|c| c.lines().count() as u32).unwrap_or(0);
                let author = landed.diff.author.clone();
                self.risk.record(&path, ts, lines, &author);
            }
        }
        self.replicate_last_commit();
        let distributed = self.pump();
        Ok(ShipOutcome {
            report,
            canary: canary_outcome,
            distributed,
        })
    }

    /// Replicates the master's current state to every healthy backup
    /// region ("each backup region ... receives updates from the master
    /// region", §3.7).
    fn replicate_last_commit(&mut self) {
        let master_state = self.regions[self.master].clone();
        for i in 0..self.regions.len() {
            if i != self.master && self.region_ok[i] {
                self.regions[i] = master_state.clone();
            }
        }
    }

    /// Drains the tailer and notifies subscribers. Returns the distributed
    /// config names. Call after direct `master_mut()` writes.
    pub fn pump(&mut self) -> Vec<String> {
        let updates = self.tailer.drain(&self.regions[self.master]);
        let mut names = Vec::new();
        for u in &updates {
            names.push(u.name.clone());
            if let Some(subs) = self.subscribers.get_mut(&u.name) {
                for s in subs {
                    s(u);
                }
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canary::SyntheticFleet;
    use crate::metrics::health;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ch(pairs: &[(&str, &str)]) -> BTreeMap<String, Option<String>> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), Some(s.to_string())))
            .collect()
    }

    #[test]
    fn end_to_end_review_canary_land_distribute() {
        let mut stack = Stack::new(3);
        stack.set_default_canary(CanarySpec::standard(1000));
        let seen: Rc<RefCell<Vec<String>>> = Rc::default();
        let seen2 = seen.clone();
        stack.subscribe("gate", move |u| {
            seen2
                .borrow_mut()
                .push(String::from_utf8_lossy(&u.data).to_string());
        });

        let id = stack.propose(
            "alice",
            "launch",
            ch(&[("gate.cconf", "export_if_last({\"pct\": 10})")]),
        );
        stack.approve(id, "bob").unwrap();
        let mut fleet = SyntheticFleet::new(4000, 1);
        let out = stack.ship(id, Some(&mut fleet)).unwrap();
        assert_eq!(out.distributed, vec!["gate"]);
        assert!(out.canary.unwrap().passed);
        assert_eq!(seen.borrow().len(), 1);
        assert!(seen.borrow()[0].contains("10"));
        // Replicated to backups.
        for r in 1..3 {
            assert_eq!(
                stack.region(r).artifact("gate").unwrap().json,
                stack.master().artifact("gate").unwrap().json
            );
        }
    }

    #[test]
    fn canary_failure_blocks_the_commit() {
        let mut stack = Stack::new(1);
        stack.set_default_canary(CanarySpec::standard(1000));
        let id = stack.propose(
            "alice",
            "bad",
            ch(&[("gate.cconf", "export_if_last({\"mode\": \"bad\"})")]),
        );
        stack.approve(id, "bob").unwrap();
        let mut fleet = SyntheticFleet::new(4000, 2);
        fleet.add_effect(|cfg, metric, _| {
            if metric == health::ERROR_RATE && cfg.contains("bad") {
                0.5
            } else {
                0.0
            }
        });
        let err = stack.ship(id, Some(&mut fleet)).unwrap_err();
        assert!(matches!(err, ShipError::Canary(_)));
        assert!(stack.master().artifact("gate").is_none(), "never landed");
    }

    #[test]
    fn unapproved_ship_is_refused() {
        let mut stack = Stack::new(1);
        let id = stack.propose("alice", "x", ch(&[("a.cconf", "export_if_last(1)")]));
        assert!(matches!(
            stack.ship(id, None),
            Err(ShipError::Review(ReviewError::ApprovalRequired))
        ));
    }

    #[test]
    fn master_failover_promotes_replica_and_continues() {
        let mut stack = Stack::new(3);
        let id = stack.propose("alice", "one", ch(&[("a.cconf", "export_if_last(1)")]));
        stack.approve(id, "r").unwrap();
        stack.ship(id, None).unwrap();

        stack.fail_region(0);
        assert_eq!(stack.master_region(), 1);
        assert!(
            stack.master().artifact("a").is_some(),
            "replica has the data"
        );

        // Commits continue through the new master.
        let id = stack.propose("alice", "two", ch(&[("b.cconf", "export_if_last(2)")]));
        stack.approve(id, "r").unwrap();
        let out = stack.ship(id, None).unwrap();
        assert_eq!(out.distributed, vec!["b"]);

        // The failed region recovers and catches up.
        stack.recover_region(0);
        assert!(stack.region(0).artifact("b").is_some());
    }

    #[test]
    fn mutator_writes_distribute_via_pump() {
        let mut stack = Stack::new(1);
        let count = Rc::new(RefCell::new(0));
        let c2 = count.clone();
        stack.subscribe("traffic.json", move |_| *c2.borrow_mut() += 1);
        let m = crate::mutator::Mutator::new("shifter");
        m.update_raw(stack.master_mut(), "traffic.json", "shift", |_| {
            "{\"w\":1}".into()
        })
        .unwrap();
        let distributed = stack.pump();
        assert_eq!(distributed, vec!["traffic.json"]);
        assert_eq!(*count.borrow(), 1);
    }
}
