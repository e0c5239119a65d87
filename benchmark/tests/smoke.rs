//! Runs every workload at `--smoke` size, untraced and traced, through the
//! real binary: all output checks on, and the printed metrics must be
//! exactly the ones `BENCHMARK.json` declares.

use std::process::Command;

use serde_json::Value;

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("last line is JSON")
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
        assert_eq!(result["failed"].as_i64(), Some(0), "{workload}");
        assert!(result["attempted"].as_i64().unwrap() >= 1, "{workload}");
        let metrics = result["metrics"].as_object().expect("metrics object");
        let want = declared(section);
        assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace}");
        for (name, unit) in &want {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
            let value = m["value"].as_f64().expect("numeric value");
            assert!(value.is_finite(), "{name}");
            if section == "end_to_end" {
                assert!(value > 0.0, "{workload}: {name} must never be 0");
            }
        }
    }
    let trace_file = format!("{}/out/{workload}.trace.json", env!("CARGO_MANIFEST_DIR"));
    let trace = std::fs::read_to_string(trace_file).expect("trace file written");
    let doc: Value = serde_json::from_str(&trace).expect("trace file is JSON");
    assert!(
        !doc["spans"].as_array().expect("spans").is_empty(),
        "{workload}"
    );
}

#[test]
fn author_day() {
    check("author_day");
}

#[test]
fn big_repo_automation() {
    check("big_repo_automation");
}

#[test]
fn fleet_day() {
    check("fleet_day");
}

#[test]
fn fleet_faults() {
    check("fleet_faults");
}

#[test]
fn read_path() {
    check("read_path");
}

#[test]
fn the_declared_workloads_are_the_ones_the_binary_knows() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "author_day",
            "big_repo_automation",
            "fleet_day",
            "fleet_faults",
            "read_path"
        ]
    );
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
