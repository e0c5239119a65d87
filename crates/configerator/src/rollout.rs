//! Fleet-integrated safe rollout: the phase-gated state machine behind the
//! canary pipeline, plus the durable revert path.
//!
//! This is the verdict logic of §3.3, and the only copy of it. It has to
//! gate a *real* (simulated) fleet, where health samples trickle in from
//! canary and control cohorts as the distribution tier actually delivers
//! the staged artifact, so evaluation is incremental — a phase cannot
//! decide anything until both cohorts have produced enough samples, and a
//! crashed cohort simply keeps the phase in [`PhaseVerdict::Wait`] rather
//! than promoting or wedging a bad verdict. [`crate::canary`] drives the
//! same machine synchronously over a fleet model sampled in-process.
//!
//! The rollback half is durable: "If the canary test fails, the canary
//! service rolls back the config change by updating the git repository"
//! (§3.3). [`land_revert`] walks the gitstore history to the last distinct
//! content of the config and lands the revert through the [`Mutator`], so
//! both the bad commit and its revert are permanent gitstore history —
//! the verdict is auditable, not just an in-memory abort.

use crate::metrics::health;
use std::collections::BTreeMap;

use crate::mutator::Mutator;
use crate::service::{CommitReport, ConfigeratorService, ServiceError, RAW_PREFIX, SOURCE_PREFIX};

/// A pass/fail predicate over canary-vs-control metric means.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthPredicate {
    /// Canary mean must not exceed control mean by more than this relative
    /// fraction (e.g. error rates, latency).
    MaxRelativeIncrease {
        /// Metric name.
        metric: String,
        /// Allowed relative increase (0.05 = 5%).
        limit: f64,
    },
    /// Canary mean must not fall below control mean by more than this
    /// relative fraction (e.g. the paper's CTR example).
    MaxRelativeDecrease {
        /// Metric name.
        metric: String,
        /// Allowed relative decrease.
        limit: f64,
    },
    /// Canary mean must stay under an absolute ceiling.
    MaxAbsolute {
        /// Metric name.
        metric: String,
        /// Ceiling.
        limit: f64,
    },
}

impl HealthPredicate {
    /// The metric this predicate reads.
    pub fn metric(&self) -> &str {
        match self {
            HealthPredicate::MaxRelativeIncrease { metric, .. }
            | HealthPredicate::MaxRelativeDecrease { metric, .. }
            | HealthPredicate::MaxAbsolute { metric, .. } => metric,
        }
    }

    /// Evaluates the predicate given canary and control means.
    pub fn holds(&self, canary_mean: f64, control_mean: f64) -> bool {
        match self {
            HealthPredicate::MaxRelativeIncrease { limit, .. } => {
                if control_mean.abs() < f64::EPSILON {
                    canary_mean <= *limit
                } else {
                    (canary_mean - control_mean) / control_mean.abs() <= *limit
                }
            }
            HealthPredicate::MaxRelativeDecrease { limit, .. } => {
                if control_mean.abs() < f64::EPSILON {
                    true
                } else {
                    (control_mean - canary_mean) / control_mean.abs() <= *limit
                }
            }
            HealthPredicate::MaxAbsolute { limit, .. } => canary_mean <= *limit,
        }
    }
}

/// One phase of a fleet rollout: a named blast radius plus the predicates
/// and sample floor that gate promotion past it.
#[derive(Debug, Clone)]
pub struct RolloutPhase {
    /// Phase name (e.g. `canary-4`, `cluster-0`, `fleet`).
    pub name: String,
    /// Samples required per metric, in *both* cohorts, before the phase
    /// may decide anything. Below this the verdict is
    /// [`PhaseVerdict::Wait`] — never an implicit pass.
    pub min_samples: u64,
    /// Pass/fail predicates over canary-vs-control means.
    pub predicates: Vec<HealthPredicate>,
}

/// A rollout spec: phases in blast-radius order.
#[derive(Debug, Clone)]
pub struct RolloutSpec {
    /// Phases run in order; a failure anywhere rolls the config back.
    pub phases: Vec<RolloutPhase>,
}

impl RolloutSpec {
    /// The paper's shape adapted to the simulated fleet: a handful of
    /// canary servers, then one cluster, each guarded by error-rate and
    /// latency ceilings relative to the control cohort.
    pub fn standard() -> RolloutSpec {
        let predicates = vec![
            HealthPredicate::MaxRelativeIncrease {
                metric: health::ERROR_RATE.into(),
                limit: 0.25,
            },
            HealthPredicate::MaxRelativeIncrease {
                metric: health::LATENCY_MS.into(),
                limit: 0.25,
            },
        ];
        RolloutSpec {
            phases: vec![
                RolloutPhase {
                    name: "canary".into(),
                    min_samples: 8,
                    predicates: predicates.clone(),
                },
                RolloutPhase {
                    name: "cluster".into(),
                    min_samples: 8,
                    predicates,
                },
            ],
        }
    }
}

/// Incrementally accumulated health samples for one cohort in one phase.
#[derive(Debug, Clone, Default)]
pub struct CohortHealth {
    /// `metric → (sum, count)`.
    metrics: BTreeMap<String, (f64, u64)>,
}

impl CohortHealth {
    /// Records one sample.
    pub fn record(&mut self, metric: &str, value: f64) {
        let e = self.metrics.entry(metric.to_string()).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// Samples seen for `metric`.
    pub fn count(&self, metric: &str) -> u64 {
        self.metrics.get(metric).map(|e| e.1).unwrap_or(0)
    }

    /// Mean of `metric`, if any samples exist.
    pub fn mean(&self, metric: &str) -> Option<f64> {
        self.metrics
            .get(metric)
            .filter(|e| e.1 > 0)
            .map(|e| e.0 / e.1 as f64)
    }
}

/// What a phase evaluation decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseVerdict {
    /// Every predicate held at the sample floor: widen the blast radius.
    Promote,
    /// A fully-sampled predicate failed: revert, now.
    Rollback,
    /// Not enough evidence yet (cohort still converging, crashed, or
    /// partitioned). Keep sampling; never promote on silence.
    Wait,
}

/// Per-predicate detail of one evaluation:
/// `(metric, canary mean, control mean, held)`.
pub type VerdictDetails = Vec<(String, f64, f64, bool)>;

/// Evaluates one phase against the accumulated cohort health.
///
/// Decision order is fail-fast, promote-conservative: a predicate that
/// *has* its sample floor in both cohorts and fails forces
/// [`PhaseVerdict::Rollback`] immediately (no point waiting out the rest);
/// otherwise any under-sampled predicate keeps the phase at
/// [`PhaseVerdict::Wait`]; only full evidence with every predicate holding
/// promotes.
pub fn evaluate_phase(
    phase: &RolloutPhase,
    canary: &CohortHealth,
    control: &CohortHealth,
) -> (PhaseVerdict, VerdictDetails) {
    let mut details = Vec::new();
    let mut waiting = false;
    let mut failed = false;
    for pred in &phase.predicates {
        let m = pred.metric();
        let sampled = canary.count(m) >= phase.min_samples && control.count(m) >= phase.min_samples;
        if !sampled {
            waiting = true;
            continue;
        }
        let c = canary.mean(m).unwrap_or(0.0);
        let x = control.mean(m).unwrap_or(0.0);
        let held = pred.holds(c, x);
        failed |= !held;
        details.push((m.to_string(), c, x, held));
    }
    let verdict = if failed {
        PhaseVerdict::Rollback
    } else if waiting {
        PhaseVerdict::Wait
    } else {
        PhaseVerdict::Promote
    };
    (verdict, details)
}

/// Result of one completed (promoted or failed) phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase name.
    pub name: String,
    /// The deciding verdict (never [`PhaseVerdict::Wait`]).
    pub verdict: PhaseVerdict,
    /// Per-predicate detail at decision time.
    pub details: VerdictDetails,
}

/// Terminal state of a rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutVerdict {
    /// Every phase promoted; the config reached the fleet.
    Promoted,
    /// A phase failed; the config was reverted.
    RolledBack,
}

/// One in-flight rollout: the staged config, the phase cursor, and the
/// health accumulators the driver feeds.
#[derive(Debug)]
pub struct Rollout {
    /// The config name being rolled out.
    pub name: String,
    spec: RolloutSpec,
    phase_idx: usize,
    canary: CohortHealth,
    control: CohortHealth,
    /// Completed-phase history.
    pub outcomes: Vec<PhaseOutcome>,
    /// Terminal verdict once decided.
    pub done: Option<RolloutVerdict>,
}

impl Rollout {
    /// Starts a rollout of `name` under `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases.
    pub fn new(name: &str, spec: RolloutSpec) -> Rollout {
        assert!(!spec.phases.is_empty(), "rollout needs at least one phase");
        Rollout {
            name: name.to_string(),
            spec,
            phase_idx: 0,
            canary: CohortHealth::default(),
            control: CohortHealth::default(),
            outcomes: Vec::new(),
            done: None,
        }
    }

    /// The phase currently gating the blast radius.
    pub fn phase(&self) -> &RolloutPhase {
        &self.spec.phases[self.phase_idx]
    }

    /// Zero-based index of the current phase.
    pub fn phase_index(&self) -> usize {
        self.phase_idx
    }

    /// Records a health sample from the cohort running the staged config.
    pub fn record_canary(&mut self, metric: &str, value: f64) {
        self.canary.record(metric, value);
    }

    /// Records a health sample from the control cohort (old config).
    pub fn record_control(&mut self, metric: &str, value: f64) {
        self.control.record(metric, value);
    }

    /// Evaluates the current phase and advances the state machine.
    ///
    /// On [`PhaseVerdict::Promote`] the phase cursor moves on (health
    /// accumulators reset — each blast radius earns its own evidence);
    /// promoting past the last phase sets [`RolloutVerdict::Promoted`].
    /// On [`PhaseVerdict::Rollback`] the rollout terminates as
    /// [`RolloutVerdict::RolledBack`]. Returns the verdict of this tick.
    pub fn tick(&mut self) -> PhaseVerdict {
        if self.done.is_some() {
            return PhaseVerdict::Wait;
        }
        let (verdict, details) = evaluate_phase(self.phase(), &self.canary, &self.control);
        match verdict {
            PhaseVerdict::Wait => {}
            decided => {
                self.outcomes.push(PhaseOutcome {
                    name: self.phase().name.clone(),
                    verdict: decided,
                    details,
                });
                if decided == PhaseVerdict::Rollback {
                    self.done = Some(RolloutVerdict::RolledBack);
                } else if self.phase_idx + 1 == self.spec.phases.len() {
                    self.done = Some(RolloutVerdict::Promoted);
                } else {
                    self.phase_idx += 1;
                    self.canary = CohortHealth::default();
                    self.control = CohortHealth::default();
                }
            }
        }
        verdict
    }
}

/// The first content of `full_path` distinct from its head value, walking
/// the first-parent history newest-first.
fn previous_content(svc: &ConfigeratorService, full_path: &str) -> Option<String> {
    let repo = svc.repo().repo(svc.repo().route(full_path));
    let head = repo.head()?;
    let current = repo.read(head, full_path).ok()?;
    for id in repo.log(head).ok()? {
        if let Ok(bytes) = repo.read(id, full_path) {
            if bytes != current {
                return Some(String::from_utf8_lossy(&bytes).into_owned());
            }
        }
    }
    None
}

/// The content `raw/<name>` held before its current head value: the first
/// distinct content reachable down the first-parent history. `None` when
/// the config has never had a different value (nothing to revert to).
pub fn previous_raw_content(svc: &ConfigeratorService, name: &str) -> Option<String> {
    previous_content(svc, &format!("{RAW_PREFIX}{name}"))
}

/// [`previous_raw_content`] for source files: the content
/// `source/<path>` held before its current head value.
pub fn previous_source_content(svc: &ConfigeratorService, path: &str) -> Option<String> {
    previous_content(svc, &format!("{SOURCE_PREFIX}{path}"))
}

/// Lands a revert of raw config `name` to its previous content, as a
/// mutator commit — the durable half of auto-rollback. The revert is a
/// regular commit (new history, not history rewriting), so gitstore
/// permanently records both the bad change and the canary's verdict on it.
pub fn land_revert(
    svc: &mut ConfigeratorService,
    mutator: &Mutator,
    name: &str,
    reason: &str,
) -> Result<CommitReport, ServiceError> {
    // A config that never had a different value has nothing to revert to;
    // surface that as an empty-change rejection rather than silently
    // re-committing the bad bytes.
    let previous = previous_raw_content(svc, name).ok_or(ServiceError::Empty)?;
    mutator.update_raw(svc, name, &format!("Revert {name}: {reason}"), move |_| {
        previous
    })
}

/// [`land_revert`] for a source-file config: lands the previous source
/// content as a mutator commit, which recompiles the artifact back to its
/// pre-rollout state.
pub fn land_source_revert(
    svc: &mut ConfigeratorService,
    mutator: &Mutator,
    path: &str,
    reason: &str,
) -> Result<CommitReport, ServiceError> {
    let previous = previous_source_content(svc, path).ok_or(ServiceError::Empty)?;
    mutator.set_source(svc, path, &format!("Revert {path}: {reason}"), &previous)
}

/// Picks a canary cohort of (up to) `n` nodes spread across as many
/// clusters and regions as the candidate set allows, instead of "first N
/// of cluster 0": one node per cluster, visiting regions round-robin
/// (region 0's first cluster, region 1's first cluster, …, region 0's
/// second cluster, …), then a second node per cluster, and so on.
/// Deterministic in the candidate order; returns all candidates if
/// `n >= candidates.len()`.
pub fn placement_diverse_cohort(
    topo: &simnet::Topology,
    candidates: &[simnet::NodeId],
    n: usize,
) -> Vec<simnet::NodeId> {
    use std::collections::VecDeque;
    // Group candidates by (region, cluster), preserving candidate order
    // within each cluster. BTreeMap keys give regions ascending and
    // clusters ascending within a region.
    let mut grouped: BTreeMap<(u16, u32), VecDeque<simnet::NodeId>> = BTreeMap::new();
    for &node in candidates {
        let p = topo.placement(node);
        grouped
            .entry((p.region.0, p.cluster.0))
            .or_default()
            .push_back(node);
    }
    // Interleave cluster queues across regions: every region's first
    // cluster before any region's second.
    let mut per_region: BTreeMap<u16, Vec<VecDeque<simnet::NodeId>>> = BTreeMap::new();
    for ((region, _), queue) in grouped {
        per_region.entry(region).or_default().push(queue);
    }
    let mut region_lists: Vec<Vec<VecDeque<simnet::NodeId>>> = per_region.into_values().collect();
    let max_clusters = region_lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut queues: Vec<VecDeque<simnet::NodeId>> = Vec::new();
    for ci in 0..max_clusters {
        for region in &mut region_lists {
            if ci < region.len() {
                queues.push(std::mem::take(&mut region[ci]));
            }
        }
    }
    // One node per cluster per pass until the cohort is full.
    let mut cohort = Vec::with_capacity(n.min(candidates.len()));
    while cohort.len() < n {
        let mut progressed = false;
        for queue in &mut queues {
            if cohort.len() >= n {
                break;
            }
            if let Some(node) = queue.pop_front() {
                cohort.push(node);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    cohort
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(min_samples: u64) -> RolloutSpec {
        let mut s = RolloutSpec::standard();
        for p in &mut s.phases {
            p.min_samples = min_samples;
        }
        s
    }

    fn feed(r: &mut Rollout, n: u64, canary_err: f64) {
        for _ in 0..n {
            r.record_canary(health::ERROR_RATE, canary_err);
            r.record_canary(health::LATENCY_MS, 100.0);
            r.record_control(health::ERROR_RATE, 0.01);
            r.record_control(health::LATENCY_MS, 100.0);
        }
    }

    #[test]
    fn waits_below_the_sample_floor_then_promotes() {
        let mut r = Rollout::new("traffic.json", spec(4));
        assert_eq!(r.tick(), PhaseVerdict::Wait, "no samples: wait");
        feed(&mut r, 3, 0.01);
        assert_eq!(r.tick(), PhaseVerdict::Wait, "under the floor: wait");
        feed(&mut r, 1, 0.01);
        assert_eq!(r.tick(), PhaseVerdict::Promote);
        assert_eq!(r.phase().name, "cluster");
        // Each phase earns its own evidence: the cluster phase starts empty.
        assert_eq!(r.tick(), PhaseVerdict::Wait);
        feed(&mut r, 4, 0.01);
        assert_eq!(r.tick(), PhaseVerdict::Promote);
        assert_eq!(r.done, Some(RolloutVerdict::Promoted));
    }

    #[test]
    fn fully_sampled_failure_rolls_back() {
        let mut r = Rollout::new("traffic.json", spec(4));
        feed(&mut r, 4, 0.10);
        assert_eq!(r.tick(), PhaseVerdict::Rollback);
        assert_eq!(r.done, Some(RolloutVerdict::RolledBack));
        assert_eq!(r.outcomes.len(), 1);
        assert!(!r.outcomes[0].details[0].3, "error_rate predicate failed");
    }

    #[test]
    fn silent_cohort_never_promotes() {
        // A crashed canary cohort produces no samples: the phase must sit
        // in Wait forever, not promote or roll back on no evidence.
        let mut r = Rollout::new("traffic.json", spec(4));
        for _ in 0..100 {
            r.record_control(health::ERROR_RATE, 0.01);
            r.record_control(health::LATENCY_MS, 100.0);
        }
        assert_eq!(r.tick(), PhaseVerdict::Wait);
        assert!(r.done.is_none());
    }

    #[test]
    fn revert_lands_previous_content_as_new_history() {
        let mut svc = ConfigeratorService::new();
        let m = Mutator::new("canary");
        svc.commit_raw("alice", "good", "traffic.json", "{\"w\": 1}")
            .unwrap();
        svc.commit_raw("alice", "bad", "traffic.json", "{\"w\": 9000}")
            .unwrap();
        assert_eq!(
            previous_raw_content(&svc, "traffic.json").as_deref(),
            Some("{\"w\": 1}")
        );
        land_revert(&mut svc, &m, "traffic.json", "canary failed").unwrap();
        assert_eq!(svc.artifact("traffic.json").unwrap().json, "{\"w\": 1}");
        // Both the bad commit and the revert are durable history.
        let path = format!("{RAW_PREFIX}traffic.json");
        let repo = svc.repo().repo(svc.repo().route(&path));
        let log = repo.log(repo.head().unwrap()).unwrap();
        let msgs: Vec<String> = log
            .iter()
            .map(|&id| repo.commit_info(id).unwrap().message.clone())
            .collect();
        assert!(msgs[0].starts_with("Revert traffic.json"));
        assert!(msgs.contains(&"bad".to_string()));
        assert_eq!(
            repo.commit_info(log[0]).unwrap().author,
            "mutator:canary",
            "revert is attributed to the canary mutator"
        );
    }

    #[test]
    fn source_revert_recompiles_previous_artifact() {
        let mut svc = ConfigeratorService::new();
        let m = Mutator::new("canary");
        svc.commit_source(
            "alice",
            "good",
            [(
                "roll/0.cconf".to_string(),
                Some("export_if_last(7)".to_string()),
            )]
            .into(),
        )
        .unwrap();
        svc.commit_source(
            "alice",
            "bad",
            [(
                "roll/0.cconf".to_string(),
                Some("export_if_last(9000)".to_string()),
            )]
            .into(),
        )
        .unwrap();
        assert_eq!(
            previous_source_content(&svc, "roll/0.cconf").as_deref(),
            Some("export_if_last(7)")
        );
        land_source_revert(&mut svc, &m, "roll/0.cconf", "canary failed").unwrap();
        // Compiled artifacts carry a trailing newline.
        assert_eq!(svc.artifact("roll/0").unwrap().json, "7\n");
    }

    #[test]
    fn revert_with_no_prior_content_is_rejected() {
        let mut svc = ConfigeratorService::new();
        let m = Mutator::new("canary");
        svc.commit_raw("alice", "new", "fresh.json", "{\"v\": 1}")
            .unwrap();
        assert!(previous_raw_content(&svc, "fresh.json").is_none());
        assert!(land_revert(&mut svc, &m, "fresh.json", "nope").is_err());
    }

    #[test]
    fn diverse_cohort_spreads_across_regions_and_clusters() {
        // 3 regions x 2 clusters x 4 servers.
        let topo = simnet::Topology::symmetric(3, 2, 4);
        let candidates: Vec<simnet::NodeId> =
            (0..topo.num_nodes() as u32).map(simnet::NodeId).collect();
        let cohort = placement_diverse_cohort(&topo, &candidates, 4);
        assert_eq!(cohort.len(), 4);
        let clusters: std::collections::BTreeSet<u32> = cohort
            .iter()
            .map(|&n| topo.placement(n).cluster.0)
            .collect();
        let regions: std::collections::BTreeSet<u16> =
            cohort.iter().map(|&n| topo.placement(n).region.0).collect();
        assert_eq!(clusters.len(), 4, "one node per cluster: {clusters:?}");
        assert_eq!(regions.len(), 3, "all regions covered: {regions:?}");
    }

    #[test]
    fn diverse_cohort_is_deterministic_and_order_preserving() {
        let topo = simnet::Topology::symmetric(2, 2, 3);
        let candidates: Vec<simnet::NodeId> =
            (0..topo.num_nodes() as u32).map(simnet::NodeId).collect();
        let a = placement_diverse_cohort(&topo, &candidates, 5);
        let b = placement_diverse_cohort(&topo, &candidates, 5);
        assert_eq!(a, b);
        // First pick is the first candidate of the first cluster.
        assert_eq!(a[0], candidates[0]);
    }

    #[test]
    fn diverse_cohort_caps_at_candidate_count() {
        let topo = simnet::Topology::symmetric(2, 1, 2);
        let candidates = [simnet::NodeId(0), simnet::NodeId(3)];
        let cohort = placement_diverse_cohort(&topo, &candidates, 10);
        assert_eq!(cohort.len(), 2);
        // Wider than one-per-cluster: second passes drain the queues.
        let all =
            placement_diverse_cohort(&topo, &(0..4u32).map(simnet::NodeId).collect::<Vec<_>>(), 3);
        assert_eq!(all.len(), 3);
        let clusters: std::collections::BTreeSet<u32> =
            all.iter().map(|&n| topo.placement(n).cluster.0).collect();
        assert_eq!(clusters.len(), 2);
    }
}
