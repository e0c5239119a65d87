//! A/B experiments over config parameters.
//!
//! "Gatekeeper ... can also run A/B testing experiments to find the best
//! config parameters" (§2.1), e.g. tuning "the echo-canceling parameters
//! for VoIP on Facebook Messenger ... for different mobile devices" (§2).
//! An [`Experiment`] deterministically assigns each user to a parameter
//! group; [`ExperimentResults`] accumulates an outcome metric per group and
//! picks a winner with a two-sample comparison.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::context::{hash_strs, salted_sample};

/// A typed experiment parameter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Boolean parameter.
    Bool(bool),
    /// Integer parameter.
    Int(i64),
    /// Floating-point parameter.
    Float(f64),
    /// String parameter.
    Str(String),
}

impl ParamValue {
    /// The float content, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(v) => Some(*v as f64),
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }
}

/// One experiment group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Group {
    /// Group name (e.g. `"aggressive_echo"`).
    pub name: String,
    /// Fraction of the population assigned to this group.
    pub fraction: f64,
    /// Parameter overrides this group receives.
    pub params: BTreeMap<String, ParamValue>,
}

/// A live experiment: deterministic assignment of users to groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Experiment name (the sampling salt).
    pub name: String,
    /// Groups; total fraction must be ≤ 1. The remainder is the control
    /// population, which receives no overrides.
    pub groups: Vec<Group>,
    /// Default parameter values for users in no group (control).
    pub defaults: BTreeMap<String, ParamValue>,
}

impl Experiment {
    /// Creates an experiment.
    ///
    /// # Panics
    ///
    /// Panics if group fractions are negative or sum to more than 1.
    pub fn new(
        name: &str,
        groups: Vec<Group>,
        defaults: BTreeMap<String, ParamValue>,
    ) -> Experiment {
        let total: f64 = groups.iter().map(|g| g.fraction).sum();
        assert!(
            groups.iter().all(|g| g.fraction >= 0.0) && total <= 1.0 + 1e-9,
            "group fractions must be nonnegative and sum to at most 1 (got {total})"
        );
        Experiment {
            name: name.to_string(),
            groups,
            defaults,
        }
    }

    /// The group index `user_id` falls into, or `None` for control.
    /// Assignment is deterministic and stable for the experiment's
    /// lifetime.
    pub fn assign(&self, user_id: u64) -> Option<usize> {
        let s = salted_sample(hash_strs(&["exp:", &self.name]), user_id);
        let mut acc = 0.0;
        for (i, g) in self.groups.iter().enumerate() {
            acc += g.fraction;
            if s < acc {
                return Some(i);
            }
        }
        None
    }

    /// The value of `param` for `user_id`: the assigned group's override,
    /// else the default.
    pub fn param(&self, user_id: u64, param: &str) -> Option<&ParamValue> {
        match self.assign(user_id) {
            Some(i) => self.groups[i]
                .params
                .get(param)
                .or_else(|| self.defaults.get(param)),
            None => self.defaults.get(param),
        }
    }

    /// Serializes as the JSON config stored in Configerator.
    pub fn to_config_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment serializes")
    }

    /// Parses from JSON config.
    pub fn from_config_json(json: &str) -> Result<Experiment, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Per-group statistics of an outcome metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStats {
    /// Sample count.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample variance (unbiased).
    pub var: f64,
}

/// Accumulates an outcome metric per experiment group (including control
/// at index `groups.len()`).
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    samples: Vec<Vec<f64>>,
}

impl ExperimentResults {
    /// Creates a collector for an experiment with `num_groups` groups (a
    /// control slot is added automatically).
    pub fn new(num_groups: usize) -> ExperimentResults {
        ExperimentResults {
            samples: vec![Vec::new(); num_groups + 1],
        }
    }

    /// Records an outcome for the user's assignment (`None` = control).
    pub fn record(&mut self, assignment: Option<usize>, outcome: f64) {
        let idx = assignment.unwrap_or(self.samples.len() - 1);
        self.samples[idx].push(outcome);
    }

    /// Statistics for a group (`None` = control).
    pub fn stats(&self, group: Option<usize>) -> Option<GroupStats> {
        let idx = group.unwrap_or(self.samples.len() - 1);
        let s = self.samples.get(idx)?;
        if s.is_empty() {
            return None;
        }
        let n = s.len();
        let mean = s.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(GroupStats { n, mean, var })
    }

    /// The group with the highest mean outcome, with its z-score against
    /// the control group. Returns `None` until every group has samples.
    pub fn winner(&self) -> Option<(usize, f64)> {
        let control = self.stats(None)?;
        let mut best: Option<(usize, GroupStats)> = None;
        for g in 0..self.samples.len() - 1 {
            let st = self.stats(Some(g))?;
            if best.map(|(_, b)| st.mean > b.mean).unwrap_or(true) {
                best = Some((g, st));
            }
        }
        let (g, st) = best?;
        let se = (st.var / st.n as f64 + control.var / control.n as f64).sqrt();
        let z = if se > 0.0 {
            (st.mean - control.mean) / se
        } else {
            0.0
        };
        Some((g, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> Experiment {
        let g = |name: &str, fraction: f64, echo: f64| Group {
            name: name.into(),
            fraction,
            params: BTreeMap::from([("VOIP_ECHO".to_string(), ParamValue::Float(echo))]),
        };
        Experiment::new(
            "echo",
            vec![g("low", 0.2, 0.1), g("high", 0.2, 0.9)],
            BTreeMap::from([("VOIP_ECHO".to_string(), ParamValue::Float(0.5))]),
        )
    }

    #[test]
    fn assignment_is_deterministic_and_fractional() {
        let e = experiment();
        let n = 50_000u64;
        let mut counts = [0usize; 3];
        for u in 0..n {
            match e.assign(u) {
                Some(i) => counts[i] += 1,
                None => counts[2] += 1,
            }
            assert_eq!(e.assign(u), e.assign(u));
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.2).abs() < 0.01);
        assert!((frac(counts[1]) - 0.2).abs() < 0.01);
        assert!((frac(counts[2]) - 0.6).abs() < 0.01);
    }

    #[test]
    fn params_resolve_group_then_default() {
        let e = experiment();
        // Find one user per assignment.
        let mut seen = [false; 3];
        for u in 0..10_000u64 {
            let a = e.assign(u);
            let v = e.param(u, "VOIP_ECHO").unwrap().as_f64().unwrap();
            match a {
                Some(0) => {
                    assert_eq!(v, 0.1);
                    seen[0] = true;
                }
                Some(1) => {
                    assert_eq!(v, 0.9);
                    seen[1] = true;
                }
                None => {
                    assert_eq!(v, 0.5);
                    seen[2] = true;
                }
                _ => unreachable!(),
            }
        }
        assert!(seen.iter().all(|s| *s));
        assert!(e.param(1, "MISSING").is_none());
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_fractions_panic() {
        let g = |f: f64| Group {
            name: "g".into(),
            fraction: f,
            params: BTreeMap::new(),
        };
        let _ = Experiment::new("x", vec![g(0.7), g(0.7)], BTreeMap::new());
    }

    #[test]
    fn results_pick_the_better_group() {
        let e = experiment();
        let mut res = ExperimentResults::new(e.groups.len());
        // Synthetic outcome: high echo parameter genuinely helps.
        for u in 0..20_000u64 {
            let a = e.assign(u);
            let v = e.param(u, "VOIP_ECHO").unwrap().as_f64().unwrap();
            let noise = (crate::context::mix64(u) % 1000) as f64 / 1000.0 - 0.5;
            res.record(a, v * 2.0 + noise);
        }
        let (winner, z) = res.winner().unwrap();
        assert_eq!(e.groups[winner].name, "high");
        assert!(z > 5.0, "z = {z}");
    }

    #[test]
    fn json_round_trip() {
        let e = experiment();
        let back = Experiment::from_config_json(&e.to_config_json()).unwrap();
        assert_eq!(e, back);
    }
}
