//! The automated canary service.
//!
//! "The canary service automatically tests a new config on a subset of
//! production machines that serve live traffic. ... A config is associated
//! with a canary spec that describes how to automate testing the config in
//! production. The spec defines multiple testing phases. For example, in
//! phase 1, test on 20 servers; in phase 2, test in a full cluster with
//! thousands of servers. For each phase, it specifies the testing target
//! servers, the healthcheck metrics, and the predicates that decide
//! whether the test passes or fails. For example, the click-through rate
//! (CTR) collected from the servers using the new config should not be
//! more than x% lower than the CTR collected from the servers still using
//! the old config" (§3.3).
//!
//! The production fleet is abstracted behind [`FleetModel`]; experiments
//! plug in [`SyntheticFleet`], whose config-effect hooks reproduce the
//! §6.4 incident classes (including load-dependent Type II errors that
//! only appear when the deployed fraction is large — the reason the paper
//! "added a canary phase to test a new config on thousands of servers in a
//! cluster").

use crate::metrics::health;
use crate::rollout::{
    HealthPredicate, PhaseOutcome, PhaseVerdict, Rollout, RolloutPhase, RolloutSpec, RolloutVerdict,
};
use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// A model of the production fleet's health under a config.
pub trait FleetModel {
    /// Total servers available.
    fn num_servers(&self) -> usize;

    /// Samples `metric` on `server`. `config` is the config content the
    /// server currently runs (`None` = the old/baseline config), and
    /// `deployed_fraction` is the fraction of the fleet running the new
    /// config (load-coupled effects depend on it).
    fn sample(
        &mut self,
        server: usize,
        config: Option<&str>,
        deployed_fraction: f64,
        metric: &str,
    ) -> f64;
}

/// One canary phase.
#[derive(Debug, Clone)]
pub struct CanaryPhase {
    /// Phase name.
    pub name: String,
    /// Number of canary servers.
    pub servers: usize,
    /// Health samples collected per server.
    pub samples_per_server: usize,
    /// Pass/fail predicates.
    pub predicates: Vec<HealthPredicate>,
}

/// A config's canary spec.
#[derive(Debug, Clone)]
pub struct CanarySpec {
    /// Phases run in order; any failure aborts.
    pub phases: Vec<CanaryPhase>,
}

impl CanarySpec {
    /// The paper's default shape: phase 1 on 20 servers, phase 2 on a full
    /// cluster of `cluster_size` servers, with error-rate and latency
    /// guards.
    pub fn standard(cluster_size: usize) -> CanarySpec {
        let predicates = vec![
            HealthPredicate::MaxRelativeIncrease {
                metric: health::ERROR_RATE.into(),
                limit: 0.25,
            },
            HealthPredicate::MaxRelativeIncrease {
                metric: health::LATENCY_MS.into(),
                limit: 0.25,
            },
            HealthPredicate::MaxRelativeDecrease {
                metric: "ctr".into(),
                limit: 0.10,
            },
        ];
        CanarySpec {
            phases: vec![
                CanaryPhase {
                    name: "phase1-20-servers".into(),
                    servers: 20,
                    samples_per_server: 10,
                    predicates: predicates.clone(),
                },
                CanaryPhase {
                    name: "phase2-cluster".into(),
                    servers: cluster_size,
                    samples_per_server: 4,
                    predicates,
                },
            ],
        }
    }
}

/// Outcome of a full canary run.
#[derive(Debug, Clone)]
pub struct CanaryOutcome {
    /// Results of the phases that ran.
    pub phases: Vec<PhaseOutcome>,
    /// Whether the config may proceed to full deployment.
    pub passed: bool,
}

/// The canary service.
#[derive(Debug, Default)]
pub struct CanaryService;

impl CanaryService {
    /// Runs `spec` for `config` against `fleet`: in each phase the first
    /// `servers` machines run the new config while an equal-sized control
    /// group keeps the old one; predicate failures abort the run (the
    /// automatic rollback of §3.3 — the config never proceeds).
    ///
    /// The verdicts are [`Rollout`]'s; this only draws every sample a
    /// phase asks for, synchronously, and ticks once per phase.
    pub fn run(
        &self,
        spec: &CanarySpec,
        config: &str,
        fleet: &mut dyn FleetModel,
    ) -> CanaryOutcome {
        if spec.phases.is_empty() {
            // Nothing to test (and `Rollout` requires a phase).
            return CanaryOutcome {
                phases: Vec::new(),
                passed: true,
            };
        }
        let total = fleet.num_servers();
        let cohort = |phase: &CanaryPhase| phase.servers.min(total / 2).max(1);
        let gates = spec.phases.iter().map(|phase| RolloutPhase {
            name: phase.name.clone(),
            // The floor is exactly what the loop below draws (and never
            // zero: a phase without samples must not promote).
            min_samples: (cohort(phase) * phase.samples_per_server).max(1) as u64,
            predicates: phase.predicates.clone(),
        });
        let mut rollout = Rollout::new(
            "canary",
            RolloutSpec {
                phases: gates.collect(),
            },
        );
        for phase in &spec.phases {
            let n = cohort(phase);
            let deployed_fraction = n as f64 / total as f64;
            let mut sampled: Vec<&str> = Vec::new();
            for pred in &phase.predicates {
                let metric = pred.metric();
                if sampled.contains(&metric) {
                    continue;
                }
                sampled.push(metric);
                for s in 0..n {
                    for _ in 0..phase.samples_per_server {
                        let c = fleet.sample(s, Some(config), deployed_fraction, metric);
                        rollout.record_canary(metric, c);
                        // Control group: servers from the other end.
                        let x = fleet.sample(total - 1 - s, None, deployed_fraction, metric);
                        rollout.record_control(metric, x);
                    }
                }
            }
            if rollout.tick() != PhaseVerdict::Promote {
                break;
            }
        }
        CanaryOutcome {
            passed: rollout.done == Some(RolloutVerdict::Promoted),
            phases: rollout.outcomes,
        }
    }
}

/// The effect a config has on one metric.
pub type ConfigEffect = Box<dyn Fn(&str, &str, f64) -> f64>;

/// A synthetic production fleet with baseline metrics, noise, and
/// pluggable config effects.
pub struct SyntheticFleet {
    servers: usize,
    baselines: HashMap<String, f64>,
    noise_frac: f64,
    rng: SmallRng,
    /// `(config, metric, deployed_fraction) → additive delta`.
    effects: Vec<ConfigEffect>,
}

impl SyntheticFleet {
    /// Creates a fleet of `servers` machines with standard baselines:
    /// `error_rate` 0.01, `latency_ms` 100, `ctr` 0.05.
    pub fn new(servers: usize, seed: u64) -> SyntheticFleet {
        let mut baselines = HashMap::new();
        baselines.insert(health::ERROR_RATE.to_string(), 0.01);
        baselines.insert(health::LATENCY_MS.to_string(), 100.0);
        baselines.insert("ctr".to_string(), 0.05);
        SyntheticFleet {
            servers,
            baselines,
            noise_frac: 0.02,
            rng: SmallRng::seed_from_u64(seed),
            effects: Vec::new(),
        }
    }

    /// Sets a metric baseline.
    pub fn set_baseline(&mut self, metric: &str, value: f64) {
        self.baselines.insert(metric.to_string(), value);
    }

    /// Registers a config effect: `f(config, metric, deployed_fraction)`
    /// returns an additive delta applied to servers running the config.
    pub fn add_effect(&mut self, f: impl Fn(&str, &str, f64) -> f64 + 'static) {
        self.effects.push(Box::new(f));
    }
}

impl FleetModel for SyntheticFleet {
    fn num_servers(&self) -> usize {
        self.servers
    }

    fn sample(
        &mut self,
        _server: usize,
        config: Option<&str>,
        deployed_fraction: f64,
        metric: &str,
    ) -> f64 {
        let base = self.baselines.get(metric).copied().unwrap_or(0.0);
        let noise = base * self.noise_frac * (self.rng.gen::<f64>() * 2.0 - 1.0);
        let mut v = base + noise;
        if let Some(cfg) = config {
            for e in &self.effects {
                v += e(cfg, metric, deployed_fraction);
            }
        }
        v.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_config_passes_all_phases() {
        let mut fleet = SyntheticFleet::new(5000, 1);
        let spec = CanarySpec::standard(2000);
        let out = CanaryService.run(&spec, "{\"v\":1}", &mut fleet);
        assert!(out.passed);
        assert_eq!(out.phases.len(), 2);
    }

    #[test]
    fn error_spew_caught_in_phase_one() {
        let mut fleet = SyntheticFleet::new(5000, 2);
        // The §6.4 log-spew incident: the config triggers errors
        // immediately, at any scale.
        fleet.add_effect(|cfg, metric, _| {
            if metric == health::ERROR_RATE && cfg.contains("\"bad\"") {
                0.05
            } else {
                0.0
            }
        });
        let spec = CanarySpec::standard(2000);
        let out = CanaryService.run(&spec, "{\"mode\":\"bad\"}", &mut fleet);
        assert!(!out.passed);
        assert_eq!(out.phases.len(), 1, "aborted in phase 1");
        assert_eq!(out.phases[0].verdict, PhaseVerdict::Rollback);
        // A good config with the same fleet still passes.
        let ok = CanaryService.run(&spec, "{\"mode\":\"good\"}", &mut fleet);
        assert!(ok.passed);
    }

    #[test]
    fn load_coupled_regression_needs_the_cluster_phase() {
        // The §6.4 backend-overload incident: latency regresses only when
        // a substantial fraction of the fleet runs the config.
        let make_fleet = || {
            let mut fleet = SyntheticFleet::new(5000, 3);
            fleet.add_effect(|cfg, metric, frac| {
                if metric == health::LATENCY_MS && cfg.contains("rare_path") && frac > 0.05 {
                    2000.0 * frac
                } else {
                    0.0
                }
            });
            fleet
        };
        // Phase-1-only spec (the paper's original, insufficient spec).
        let small_only = CanarySpec {
            phases: vec![CanarySpec::standard(2000).phases[0].clone()],
        };
        let out = CanaryService.run(&small_only, "{\"use\":\"rare_path\"}", &mut make_fleet());
        assert!(out.passed, "20-server canary misses the load issue");
        // The standard spec with a cluster phase catches it.
        let full = CanarySpec::standard(2000);
        let out = CanaryService.run(&full, "{\"use\":\"rare_path\"}", &mut make_fleet());
        assert!(!out.passed, "cluster-scale phase must catch the load issue");
        assert_eq!(out.phases.len(), 2);
        assert_eq!(out.phases[0].verdict, PhaseVerdict::Promote);
        assert_eq!(out.phases[1].verdict, PhaseVerdict::Rollback);
    }

    #[test]
    fn ctr_decrease_predicate() {
        let mut fleet = SyntheticFleet::new(2000, 4);
        fleet.add_effect(|cfg, metric, _| {
            if metric == "ctr" && cfg.contains("ugly_ui") {
                -0.02
            } else {
                0.0
            }
        });
        let spec = CanarySpec::standard(500);
        let out = CanaryService.run(&spec, "{\"theme\":\"ugly_ui\"}", &mut fleet);
        assert!(!out.passed, "40% CTR drop exceeds the 10% allowance");
    }

    #[test]
    fn run_matches_a_hand_fed_rollout() {
        // Same seed and the same draw order (per metric, server by server,
        // canary then control) must give bit-identical means: the service
        // adds no verdict logic of its own to `Rollout`'s.
        let spec = CanarySpec {
            phases: vec![CanarySpec::standard(2000).phases[0].clone()],
        };
        let config = "{\"v\":1}";
        let out = CanaryService.run(&spec, config, &mut SyntheticFleet::new(400, 9));

        let phase = &spec.phases[0];
        let mut fleet = SyntheticFleet::new(400, 9);
        let mut by_hand = Rollout::new(
            "by-hand",
            RolloutSpec {
                phases: vec![RolloutPhase {
                    name: phase.name.clone(),
                    min_samples: (phase.servers * phase.samples_per_server) as u64,
                    predicates: phase.predicates.clone(),
                }],
            },
        );
        let fraction = phase.servers as f64 / 400.0;
        for pred in &phase.predicates {
            let m = pred.metric();
            for s in 0..phase.servers {
                for _ in 0..phase.samples_per_server {
                    by_hand.record_canary(m, fleet.sample(s, Some(config), fraction, m));
                    by_hand.record_control(m, fleet.sample(399 - s, None, fraction, m));
                }
            }
        }
        assert_eq!(by_hand.tick(), PhaseVerdict::Promote);
        assert!(out.passed);
        assert_eq!(out.phases[0].details, by_hand.outcomes[0].details);
    }

    #[test]
    fn predicate_arithmetic() {
        let p = HealthPredicate::MaxRelativeIncrease {
            metric: "m".into(),
            limit: 0.25,
        };
        assert!(p.holds(1.2, 1.0));
        assert!(!p.holds(1.3, 1.0));
        let p = HealthPredicate::MaxRelativeDecrease {
            metric: "m".into(),
            limit: 0.10,
        };
        assert!(p.holds(0.95, 1.0));
        assert!(!p.holds(0.8, 1.0));
        let p = HealthPredicate::MaxAbsolute {
            metric: "m".into(),
            limit: 5.0,
        };
        assert!(p.holds(4.0, 0.0));
        assert!(!p.holds(6.0, 0.0));
    }
}
