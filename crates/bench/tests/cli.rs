//! The `repro` command line refuses what it does not understand: a typo
//! must exit 2 before anything runs, not run some other experiment (or a
//! long live sweep that rewrites `BENCH_simnet.json`) in its place. The
//! golden-pinned variants are entries of their own (`fleet_check`,
//! `verify_check`, `metrics_chaos`, ...), so their old flags are errors.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
        .status
        .code()
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["mobile", "--sed", "3"][..],
        &["perf"],
        &["fleet", "--chek"],
        &["fig7", "fig8"],
        &["laser", "--seed"],
        &["fleet", "--mobile", "1000000"],
        &["fleet", "--check"],
        &["verify", "--check"],
        &["metrics", "--chaos"],
        &["trace", "--chaos"],
        &["fig7", "--bless"],
        &["check", "--full"],
    ] {
        assert_eq!(exit_code(args), Some(2), "repro {}", args.join(" "));
    }
}
