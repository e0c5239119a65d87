//! `repro` — regenerates every table and figure from the paper.
//!
//! Usage:
//!
//! ```text
//! repro list                 # show available experiments
//! repro <name> [--full]      # run one experiment (e.g. `repro fig13`)
//! repro all [--full]         # run everything in order
//! repro chaos [--seed <n>]   # chaos campaign, or replay one seed verbosely
//! repro trace [--seed <n>] [--chaos]
//!                            # per-commit propagation waterfalls
//! repro metrics [--seed <n>] [--chaos]
//!                            # Prometheus-format metrics dump
//! repro losssweep [--seed <n>]
//!                            # bytes-on-wire and commit→proxy latency at
//!                            # 0/10/30/50% message drop
//! repro laser [--seed <n>]   # Laser serving tier: hedged vs unhedged reads
//! repro canary [--seed <n>]  # fleet rollout pipeline under chaos: staged
//!                            # canary phases, auto-rollback, drift audit
//! repro audit [--seed <n>]   # drift auditor: seed cache faults, detect,
//!                            # classify, repair
//! repro compile [--full]     # parallel + incremental compile pipeline
//!                            # (deterministic report on stdout, timings on
//!                            # stderr)
//! repro verify [--check]     # static-verifier gate: seeded-bad commits
//!                            # replayed through plan()'s pre-commit verify
//!                            # pass; catch-rate table + repair-hint demo.
//!                            # --check omits the per-commit log
//!                            # (byte-deterministic, golden-gated)
//! repro fleet [--check] [--mobile <clients>]
//!                            # paper-scale diurnal replay, profiled:
//!                            # 1k–100k-node propagation-delay tables and
//!                            # wall splits; rewrites BENCH_simnet.json.
//!                            # --check prints only virtual-time fields
//!                            # for the 1k/5k/100k sizes and the 1k
//!                            # fleet's event-count profile
//!                            # (byte-deterministic, golden-gated).
//!                            # --mobile models that many MobileConfig
//!                            # pull clients as per-cluster population
//!                            # cohorts over the 1k fleet and reports
//!                            # per-cohort staleness percentiles
//! repro health [--seed <n>]  # ODS fleet health plane: per-tier rollups +
//!                            # multi-window SLO burn rates under chaos
//! repro storm [--seed <n>]   # observer mass-restart reconnect storm under
//!                            # decorrelated-jitter backoff
//! ```
//!
//! `--full` uses the larger scale quoted in `EXPERIMENTS.md`; the default
//! small scale finishes each experiment in seconds to a couple of minutes.
//! `--seed` (default 1) reaches every experiment; those without randomness
//! of their own ignore it. An unknown flag, a flag without its value, or a
//! second positional argument is a usage error (exit 2), as is an unknown
//! experiment.

use bench::{Scale, EXPERIMENTS};

/// The parsed command line.
#[derive(Default)]
struct Args {
    name: Option<String>,
    full: bool,
    check: bool,
    chaos: bool,
    seed: Option<u64>,
    mobile: Option<u64>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => a.full = true,
            "--check" => a.check = true,
            "--chaos" => a.chaos = true,
            // A typo'd value must not silently fall back to a default run:
            // `--seed` exists to replay one scenario, `--mobile` to size
            // one population.
            "--seed" | "--mobile" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or(format!("{arg} requires an integer value"))?;
                if arg == "--seed" {
                    a.seed = Some(n);
                } else {
                    a.mobile = Some(n);
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if a.name.is_none() => a.name = Some(name.to_string()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e} (try `repro list`)");
        std::process::exit(2);
    });
    let scale = if args.full { Scale::Full } else { Scale::Small };
    let seed = args.seed.unwrap_or(1);
    let name = args.name.as_deref().unwrap_or("list");
    match name {
        "list" => {
            eprintln!("experiments:");
            for (n, _) in EXPERIMENTS {
                eprintln!("  {n}");
            }
            eprintln!("\nusage: repro <name>|all [--full] [--seed <n>]");
        }
        "all" => {
            for (n, run) in EXPERIMENTS {
                banner(n);
                println!("{}", run(scale, seed));
            }
        }
        // No banner: the output is a machine-diffable metrics snapshot
        // (scripts/check.sh compares it byte-for-byte against goldens).
        "metrics" if args.chaos => print!("{}", bench::chaos_exp::export_metrics(seed)),
        "metrics" => print!("{}", bench::trace_exp::metrics(seed, false)),
        _ => {
            let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
                eprintln!("unknown experiment: {name} (try `repro list`)");
                std::process::exit(2);
            };
            banner(name);
            let report = match name {
                "chaos" if args.seed.is_some() => bench::chaos_exp::replay(seed),
                "trace" if args.chaos => bench::trace_exp::trace(seed, true),
                "verify" => bench::verify_exp::verify(args.check),
                "fleet" => match args.mobile {
                    Some(clients) => bench::fleet_exp::fleet_mobile(clients),
                    None => bench::fleet_exp::fleet(args.check),
                },
                _ => run(scale, seed),
            };
            println!("{report}");
        }
    }
}

fn banner(name: &str) {
    println!("==============================================================");
    println!("== {name}");
    println!("==============================================================");
}
