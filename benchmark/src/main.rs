//! The repo benchmark: one command runs one workload from a seed, checks
//! its outputs, and prints every metric by name with its unit. See
//! `README.md` for the workloads, the metrics and the noise protocol, and
//! `../BENCHMARK.json` for the contract this binary is run under.

mod commit_path;
mod corpus;
mod fleet_path;
mod harness;
mod read_path;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Metrics, Rounds, Size, Tally, Tracer};

/// Every end-to-end metric, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_p50_ms", "ms"),
    ("commit_p95_ms", "ms"),
    ("commits_per_s", "1/s"),
    ("propagation_p50_ms", "ms"),
    ("propagation_p99_ms", "ms"),
    ("wire_bytes_per_commit", "B"),
    ("sim_events_per_s", "1/s"),
    ("commit_stall_max_ms", "ms"),
    ("gk_checks_per_s", "1/s"),
    ("mobile_polls_per_s", "1/s"),
    ("project_update_p50_us", "us"),
    ("events_per_proxy_update", "count"),
];

/// Every per-layer metric, printed by every workload with `--trace 1`.
/// A layer off the workload's path reads 0.
const PER_LAYER: [(&str, &str); 70] = [
    ("configerator.diff_against_us", "us"),
    ("configerator.land_us", "us"),
    ("configerator.plan_us", "us"),
    ("configerator.self_us", "us"),
    ("configerator.tailer_drain_us", "us"),
    ("configerator.candidates_per_commit", "count"),
    ("configerator.compiled_per_commit", "count"),
    ("configerator.skip_ratio", "ratio"),
    ("configerator.leaf_p50_ms", "ms"),
    ("configerator.raw_p50_ms", "ms"),
    ("configerator.ripple_p50_ms", "ms"),
    ("configerator.hot_p50_ms", "ms"),
    ("configerator.rejected", "count"),
    ("configerator.conflicts", "count"),
    ("configerator.hop_land_us", "us"),
    ("configerator.hop_tailer_us", "us"),
    ("cdsl.parse_mb_per_s", "MB/s"),
    ("cdsl.compile_cold_us", "us"),
    ("cdsl.compile_warm_us", "us"),
    ("cdsl.verify_us_per_commit", "us"),
    ("cdsl.compile_cpu_us_per_commit", "us"),
    ("cdsl.parse_hit_ratio", "ratio"),
    ("cdsl.artifact_bytes", "B"),
    ("gitstore.commit_us", "us"),
    ("gitstore.index_bytes_per_commit", "B"),
    ("gitstore.trees_per_commit", "count"),
    ("gitstore.blobs_per_commit", "count"),
    ("gitstore.read_head_ns", "ns"),
    ("gitstore.diff_commits_us", "us"),
    ("gitstore.sha1_mb_per_s", "MB/s"),
    ("gitstore.odb_bytes_per_user_byte", "ratio"),
    ("zeus.hop_propose_ms", "ms"),
    ("zeus.hop_quorum_ms", "ms"),
    ("zeus.hop_observer_ms", "ms"),
    ("zeus.hop_proxy_ms", "ms"),
    ("zeus.msgs_per_commit", "count"),
    ("zeus.ensemble_wall_share", "ratio"),
    ("zeus.observer_wall_share", "ratio"),
    ("zeus.proxy_wall_share", "ratio"),
    ("zeus.lease_renewals", "count"),
    ("zeus.lease_repairs", "count"),
    ("zeus.repair_ratio", "ratio"),
    ("zeus.lease_expiries", "count"),
    ("zeus.append_retransmits", "count"),
    ("zeus.leader_elections", "count"),
    ("zeus.observer_gap_resyncs", "count"),
    ("zeus.proxy_failovers", "count"),
    ("zeus.dropped_proposals", "count"),
    ("zeus.writes_unroutable", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.engine_wall_share", "ratio"),
    ("simnet.events_per_node", "count"),
    ("simnet.queue_peak", "count"),
    ("simnet.queue_mean", "count"),
    ("simnet.install_ms", "ms"),
    ("simnet.messages_sent", "count"),
    ("simnet.dropped_chaos", "count"),
    ("simnet.fanout_sends_per_frame", "count"),
    ("gatekeeper.check_ns", "ns"),
    ("gatekeeper.evals_per_check", "count"),
    ("gatekeeper.cost_units_per_check", "count"),
    ("gatekeeper.update_project_us", "us"),
    ("gatekeeper.pass_ratio", "ratio"),
    ("laser.get_ns", "ns"),
    ("laser.memory_hit_ratio", "ratio"),
    ("laser.upsert_us", "us"),
    ("mobileconfig.poll_ns", "ns"),
    ("mobileconfig.not_modified_ratio", "ratio"),
    ("mobileconfig.reply_bytes_per_poll", "B"),
    ("trace_overhead_pct", "%"),
];

/// The workloads, grouped by the path they measure: commit, fleet, read.
/// The first of each group is also the probe the other groups run.
const PATHS: [&[&str]; 3] = [
    &["author_day", "big_repo_automation"],
    &["fleet_day", "fleet_faults"],
    &["read_path"],
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !PATHS.concat().contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            PATHS.concat().join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Sets up `workload` at `size`, ready to step. The workload being
/// measured sets up repeatedly (for `setup_s`); `--smoke` and probes once.
fn start(workload: &str, size: Size, args: &Args) -> Box<dyn Rounds> {
    let repeat = size == Size::Full;
    match workload {
        "author_day" => {
            let shape = commit_path::AUTHOR_DAY.sized(size);
            commit_path::start(shape, args.seed, repeat, args.trace)
        }
        "big_repo_automation" => {
            let shape = commit_path::BIG_REPO_AUTOMATION.sized(size);
            commit_path::start(shape, args.seed, repeat, args.trace)
        }
        "fleet_day" => fleet_path::start(fleet_path::FLEET_DAY.sized(size), args.seed),
        "fleet_faults" => fleet_path::start(fleet_path::FLEET_FAULTS.sized(size), args.seed),
        _ => read_path::start(read_path::READ_PATH.sized(size), args.seed, repeat),
    }
}

fn json_line(correct: bool, tally: &Tally, names: &[(&str, &str)], values: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload.as_str();
    let (size, probe_size, seconds) = if args.smoke {
        (Size::Smoke, Size::Smoke, 0.0)
    } else {
        (Size::Full, Size::Probe, args.seconds)
    };
    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut main = start(w, size, &args);
    let began = Instant::now();
    while main.rounds() < main.min_rounds() {
        main.step(&mut tr);
    }
    let minimum = began.elapsed().as_secs_f64();
    // Set-up plus the minimum rounds: the same work in every run, and before
    // a probe exists. At exit it would grow with however many rounds the
    // host fitted into `--seconds`.
    let peak_rss_mb = harness::peak_rss_mb();

    // The benchmark's contract wants every end-to-end metric, never 0, from
    // every workload. The metrics of the two paths a workload does not
    // measure come from probes: the first workload of each of those paths
    // at `--smoke` size, for a fixed number of rounds that are not part of
    // the measured time. The rounds are spread evenly over the rest of the
    // run, because the host's slow stretches last seconds and would cover a
    // whole probe.
    let mut probes: Vec<Box<dyn Rounds>> = PATHS
        .iter()
        .filter(|group| !group.contains(&w) && !args.trace)
        .map(|group| start(group[0], probe_size, &args))
        .collect();
    let mut used = minimum;
    loop {
        let done = used >= seconds;
        let due = if done {
            1.0
        } else {
            (used - minimum) / (seconds - minimum)
        };
        for probe in &mut probes {
            while probe.rounds() < (probe.min_rounds() as f64 * due) as usize {
                probe.step(&mut off);
            }
        }
        if done {
            break;
        }
        let began = Instant::now();
        main.step(&mut tr);
        used += began.elapsed().as_secs_f64();
    }

    let main = main.finish(&mut tr);
    let mut values = Metrics::default();
    let mut tally = main.tally;
    values.merge(main.end_to_end);
    values.merge(main.per_layer);
    values.put("setup_s", main.setup_s);
    values.put("peak_rss_mb", peak_rss_mb);
    if args.trace {
        let overhead = 100.0 * (harness::ratio(main.untraced_rate, main.traced_rate) - 1.0);
        values.put("trace_overhead_pct", overhead);
    }
    for probe in probes {
        let probe = probe.finish(&mut off);
        values.merge(probe.end_to_end);
        tally.merge(probe.tally);
    }

    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{dir}/{}.trace.json", args.workload);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, tr.to_json(&args.workload, args.seed)));
        match written {
            Ok(()) => eprintln!("trace written to {file}"),
            Err(e) => tally.fail(|| format!("writing {file}: {e}")),
        }
    }

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (name, unit) in names {
        println!(
            "{name:<40} {:>18.4} {unit}",
            values.get(name).unwrap_or(0.0)
        );
    }
    println!(
        "operations attempted {} failed {}",
        tally.attempted, tally.failed
    );
    for m in &tally.messages {
        println!("FAILED: {m}");
    }
    let correct = tally.failed == 0;
    println!("{}", json_line(correct, &tally, names, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
