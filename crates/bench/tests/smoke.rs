//! Smoke tests for the repro harness: every cheap experiment runs and
//! produces a report mentioning its key terms. The expensive sweeps
//! (fig13/fig14/packagevessel/partitioning) are exercised by `repro`
//! itself and kept out of the test suite for time.

use bench::{run_experiment, Scale, EXPERIMENTS};

fn run(name: &str) -> String {
    run_experiment(name, Scale::Small, 1).expect("known experiment")
}

#[test]
fn statistics_experiments_produce_tables() {
    for (name, needle) in [
        ("table1", "paper: 92.8%"),
        ("table2", "line changes per update"),
        ("table3", "co-authors per config"),
        ("fig9", "last modified"),
        ("fig10", "age at update time"),
        ("headline", "mean lifetime writes"),
    ] {
        let out = run(name);
        assert!(out.contains(needle), "{name} missing {needle:?}:\n{out}");
        assert!(out.contains("measured"), "{name} lacks measured column");
    }
}

#[test]
fn growth_and_commit_figures() {
    let f7 = run("fig7");
    assert!(f7.contains("final compiled fraction"));
    let f11 = run("fig11");
    assert!(f11.contains("weekend/weekday ratio"));
    let f12 = run("fig12");
    assert!(f12.contains("day 0:"));
    let f8 = run("fig8");
    assert!(f8.contains("P50") && f8.contains("P95"));
}

#[test]
fn gatekeeper_experiments() {
    let opt = run("gk_opt");
    assert!(opt.contains("cost-optimized"));
    let roll = run("rollout");
    assert!(roll.contains("global 100%"));
}

#[test]
fn contention_and_canary() {
    let c = run("contention");
    assert!(c.contains("stale-clone retries"));
    assert!(c.contains("0 syncs"));
    let t = run("canary_timing");
    assert!(t.contains("10 min"));
}

#[test]
fn canary_rollout_and_audit() {
    let c = run("canary");
    assert!(c.contains("overall: PASS"), "canary gates failed:\n{c}");
    let a = run("audit");
    assert!(a.contains("overall: PASS"), "audit gates failed:\n{a}");
}

#[test]
fn mobile_bandwidth() {
    let m = run("mobile");
    assert!(m.contains("savings"));
}

#[test]
fn unknown_experiment_is_none() {
    assert!(run_experiment("nope", Scale::Small, 1).is_none());
}

#[test]
fn experiment_names_are_unique() {
    // `run_experiment` takes the first entry with a matching name, so every
    // listed name resolves to its own entry exactly when no name repeats.
    // Nothing is run here; the cheap experiments run above.
    for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
        let first = EXPERIMENTS.iter().position(|(n, _)| n == name);
        assert_eq!(first, Some(i), "{name} is listed twice");
    }
}
