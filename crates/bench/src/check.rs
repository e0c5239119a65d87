//! `repro check [--bless]`: every golden and every gate, in one process
//! (DESIGN.md §4k). Each row of [`CHECKS`] runs one experiment at the small
//! scale; its text must equal its golden, a `rerun` row must print the same
//! bytes twice, and every gate must hold. `--bless` writes the goldens and
//! skips what depends on the host: reruns, wall gates and gates-only rows.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use gitstore::diff::{diff_lines, render, DiffOp};

use crate::{run_in, Experiment, Scale};

/// Where the goldens live, relative to the repository root.
pub const GOLDEN_DIR: &str = "scripts/goldens";

/// One row of [`CHECKS`]: the golden file (empty for a run kept only for
/// its gates), the `EXPERIMENTS` entry, its seed, and whether a second
/// run must print the same bytes.
pub type Check = (&'static str, &'static str, u64, bool);

/// What `repro check` runs, in order.
pub const CHECKS: &[Check] = &[
    // Chaos scenarios must be byte-for-byte reproducible: the exported
    // metrics snapshot for a fixed seed is the golden.
    ("chaos_metrics_seed1.prom", "metrics_chaos", 1, false),
    ("chaos_metrics_seed2.prom", "metrics_chaos", 2, false),
    ("chaos_metrics_seed3.prom", "metrics_chaos", 3, false),
    ("laser_seed1.txt", "laser", 1, false),
    ("canary_seed1.txt", "canary", 1, false),
    ("audit_seed1.txt", "audit", 1, false),
    ("compile.txt", "compile", 1, false),
    ("verify_check.txt", "verify_check", 1, false),
    ("", "fleet", 1, false),
    ("fleet_check.txt", "fleet_check", 1, true),
    ("fleet_mobile.txt", "fleet_mobile", 1, true),
    ("health_seed1.txt", "health", 1, false),
    ("storm_seed1.txt", "storm", 1, false),
    ("losssweep_seed1.txt", "losssweep", 1, true),
    ("pushpull.txt", "pushpull", 1, false),
    ("incidents.txt", "incidents", 1, false),
];

/// Most changed lines a golden mismatch prints.
const DIFF_LINES: usize = 12;

/// Runs `checks` against `entries` with goldens under `dir`, writing
/// progress and a wall-time table to `out`. Returns one line per failure,
/// each naming the golden file or gate; empty means everything held.
pub fn check(
    checks: &[Check],
    entries: &[Experiment],
    dir: &Path,
    bless: bool,
    out: &mut dyn Write,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut times = Vec::new();
    for &(file, entry, seed, rerun) in checks {
        if bless && file.is_empty() {
            continue;
        }
        let label = format!("{entry} --seed {seed}");
        let _ = writeln!(out, "== {label} {file}");
        let t0 = Instant::now();
        let run = || run_in(entries, entry, Scale::Small, seed).expect("CHECKS names an entry");
        let report = run();
        let failed = failures.len();
        for line in &report.wall {
            let _ = writeln!(out, "  {line}");
        }
        for g in report.gates.iter().filter(|g| !(bless && g.wall)) {
            let _ = writeln!(out, "  {g}");
            if !g.holds {
                failures.push(format!("{label}: gate {} failed", g.name));
            }
        }
        let path = dir.join(file);
        if file.is_empty() {
            // Kept for its gates alone.
        } else if bless {
            match std::fs::write(&path, &report.text) {
                Ok(()) => {
                    let _ = writeln!(out, "  wrote {}", path.display());
                }
                Err(e) => failures.push(format!("{file}: cannot write {}: {e}", path.display())),
            }
        } else {
            match std::fs::read_to_string(&path) {
                Ok(golden) if golden == report.text => {}
                Ok(golden) => {
                    let _ = write!(out, "{}", first_differences(&golden, &report.text));
                    failures.push(format!(
                        "{file}: `repro {entry}` diverged from the golden (intended: --bless)"
                    ));
                }
                Err(e) => failures.push(format!("{file}: cannot read {}: {e}", path.display())),
            }
        }
        if rerun && !bless && run().text != report.text {
            failures.push(format!("{label}: a second run printed different bytes"));
        }
        for f in &failures[failed..] {
            let _ = writeln!(out, "FAIL {f}");
        }
        times.push((label, t0.elapsed().as_secs_f64()));
    }
    let _ = writeln!(out, "\ncheck wall time");
    for (label, s) in &times {
        let _ = writeln!(out, "  {s:>10.3} s  {label}");
    }
    let total: f64 = times.iter().map(|(_, s)| s).sum();
    let _ = writeln!(out, "  {total:>10.3} s  total");
    failures
}

/// The first changed lines between a golden and a new text.
fn first_differences(golden: &str, text: &str) -> String {
    let ops = diff_lines(golden, text);
    let changed = |op: &&DiffOp| !matches!(op, DiffOp::Equal(_));
    let Some(first) = ops.iter().position(|op| changed(&op)) else {
        return "  (the texts differ only in line endings)\n".to_string();
    };
    let shown: Vec<DiffOp> = ops[first..]
        .iter()
        .filter(changed)
        .take(DIFF_LINES)
        .cloned()
        .collect();
    format!("  from line {}:\n{}", first + 1, render(&shown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gate, Report};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CALLS: AtomicU64 = AtomicU64::new(0);

    const FAKE: &[Experiment] = &[
        ("steady", |_, seed| format!("seed {seed}\n").into()),
        ("drifting", |_, _| {
            format!("call {}\n", CALLS.fetch_add(1, Ordering::Relaxed)).into()
        }),
        ("gated", |_, _| Report {
            text: "gated\n".into(),
            wall: vec!["took 1 ms".into()],
            gates: vec![
                Gate::new("virtual", true, ""),
                Gate::wall("speedup", false, "1.0x >= 5x"),
            ],
        }),
    ];

    /// A fresh directory for one test's goldens, removed when dropped.
    struct TempDir(std::path::PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("bench-check-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn golden(name: &str, seed: u64) -> String {
        crate::with_banner(name, format!("seed {seed}\n").into()).text
    }

    fn run(checks: &[Check], dir: &Path, bless: bool) -> (Vec<String>, String) {
        let mut out = Vec::new();
        let failures = check(checks, FAKE, dir, bless, &mut out);
        (failures, String::from_utf8(out).unwrap())
    }

    #[test]
    fn matching_golden_passes() {
        let dir = temp_dir("pass");
        std::fs::write(dir.join("steady.txt"), golden("steady", 2)).unwrap();
        let (failures, out) = run(&[("steady.txt", "steady", 2, true)], &dir, false);
        assert!(failures.is_empty(), "{failures:?}\n{out}");
        assert!(out.contains("check wall time") && out.contains("steady.txt"));
    }

    #[test]
    fn golden_mismatch_names_the_file_and_shows_the_line() {
        let dir = temp_dir("mismatch");
        std::fs::write(dir.join("steady.txt"), golden("steady", 1)).unwrap();
        let (failures, out) = run(&[("steady.txt", "steady", 2, false)], &dir, false);
        assert_eq!(failures.len(), 1, "{out}");
        assert!(failures[0].starts_with("steady.txt:"), "{failures:?}");
        assert!(out.contains("from line 4:\n-seed 1\n+seed 2\n"), "{out}");
    }

    #[test]
    fn failing_gate_fails_and_bless_skips_wall_gates() {
        let dir = temp_dir("gate");
        let (failures, out) = run(&[("", "gated", 1, false)], &dir, false);
        assert_eq!(failures.len(), 1, "{out}");
        assert!(failures[0].contains("gate speedup failed"), "{failures:?}");
        assert!(out.contains("took 1 ms"));
        // Blessing skips the gates-only row, and with it the wall gate.
        let (failures, out) = run(&[("", "gated", 1, false)], &dir, true);
        assert!(failures.is_empty() && !out.contains("speedup"), "{out}");
    }

    #[test]
    fn rerun_mismatch_fails() {
        let dir = temp_dir("rerun");
        std::fs::write(dir.join("drift.txt"), "").unwrap();
        let (failures, _) = run(&[("drift.txt", "drifting", 1, true)], &dir, false);
        assert!(
            failures.iter().any(|f| f.contains("second run")),
            "{failures:?}"
        );
    }

    #[test]
    fn bless_writes_the_golden() {
        let dir = temp_dir("bless");
        let (failures, _) = run(&[("steady.txt", "steady", 3, true)], &dir, true);
        assert!(failures.is_empty(), "{failures:?}");
        let written = std::fs::read_to_string(dir.join("steady.txt")).unwrap();
        assert_eq!(written, golden("steady", 3));
        let (failures, _) = run(&[("steady.txt", "steady", 3, true)], &dir, false);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn every_check_names_an_experiment_and_a_unique_golden() {
        for (i, &(file, entry, ..)) in CHECKS.iter().enumerate() {
            assert!(
                crate::EXPERIMENTS.iter().any(|(n, _)| *n == entry),
                "{entry}"
            );
            assert!(
                file.is_empty() || CHECKS[..i].iter().all(|c| c.0 != file),
                "{file} is listed twice"
            );
        }
    }
}
