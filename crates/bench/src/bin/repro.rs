//! `repro` — regenerates every table and figure from the paper.
//!
//! ```text
//! repro list                        # show available experiments
//! repro <name> [--full] [--seed n]  # run one experiment (e.g. `repro fig13`)
//! repro all [--full]                # run everything in order
//! repro chaos --seed <n>            # replay one chaos seed verbosely
//! repro check [--bless]             # every golden and gate (from the repo
//!                                   # root); --bless rewrites the goldens
//! ```
//!
//! The report goes to stdout; its wall lines (timings, files written) and
//! one line per gate go to stderr, and `repro` exits 1 if a gate fails.
//! `--full` uses the larger scale quoted in `EXPERIMENTS.md`. `--seed`
//! (default 1) reaches every experiment; those without randomness of their
//! own ignore it. Anything else on the command line — an unknown flag or
//! experiment, a missing value, a second name, a flag the command does not
//! take — is a usage error (exit 2).

use std::path::Path;

use bench::{check, Report, Scale, EXPERIMENTS};

/// The parsed command line.
#[derive(Default)]
struct Args {
    name: Option<String>,
    full: bool,
    seed: Option<u64>,
    bless: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => a.full = true,
            "--bless" => a.bless = true,
            // A typo'd value must not silently fall back to a default run:
            // `--seed` exists to replay one scenario.
            "--seed" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or(format!("{arg} requires an integer value"))?;
                a.seed = Some(n);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if a.name.is_none() => a.name = Some(name.to_string()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    // `check` runs at its own scale and seeds; only it writes goldens.
    let check = a.name.as_deref() == Some("check");
    if a.bless && !check {
        return Err("--bless applies only to `repro check`".to_string());
    }
    if check && (a.full || a.seed.is_some()) {
        return Err("`repro check` takes only --bless".to_string());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&args).unwrap_or_else(|e| usage_error(&e));
    let scale = if args.full { Scale::Full } else { Scale::Small };
    let seed = args.seed.unwrap_or(1);
    let name = args.name.as_deref().unwrap_or("list");
    let passed = match name {
        "list" => {
            eprintln!("experiments:");
            for (n, _) in EXPERIMENTS {
                eprintln!("  {n}");
            }
            eprintln!("\nusage: repro <name>|all|check [--full] [--seed <n>] [--bless]");
            true
        }
        "all" => {
            // Every experiment runs, whatever an earlier one's gates said.
            let mut passed = true;
            for (n, _) in EXPERIMENTS {
                passed &= emit(bench::run_experiment(n, scale, seed).expect("listed"));
            }
            passed
        }
        "check" => {
            let dir = Path::new(check::GOLDEN_DIR);
            if !dir.is_dir() {
                usage_error(&format!(
                    "no {} here; run from the repo root",
                    dir.display()
                ));
            }
            let mut out = std::io::stdout();
            let failures = check::check(check::CHECKS, EXPERIMENTS, dir, args.bless, &mut out);
            for f in &failures {
                println!("failed: {f}");
            }
            if failures.is_empty() {
                let done = if args.bless {
                    "goldens written"
                } else {
                    "all checks passed"
                };
                println!("{done}");
            }
            failures.is_empty()
        }
        "chaos" if args.seed.is_some() => {
            emit(bench::with_banner("chaos", bench::chaos_exp::replay(seed)))
        }
        _ => match bench::run_experiment(name, scale, seed) {
            Some(report) => emit(report),
            None => usage_error(&format!("unknown experiment: {name}")),
        },
    };
    if !passed {
        std::process::exit(1);
    }
}

/// Prints a report (text to stdout; wall lines and gates to stderr) and
/// returns whether every gate held.
fn emit(report: Report) -> bool {
    print!("{}", report.text);
    for line in &report.wall {
        eprintln!("{line}");
    }
    for g in &report.gates {
        eprintln!("{g}");
    }
    report.passed()
}

fn usage_error(e: &str) -> ! {
    eprintln!("error: {e} (try `repro list`)");
    std::process::exit(2);
}
