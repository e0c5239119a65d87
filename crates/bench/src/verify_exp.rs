//! `repro verify`: the static-verifier gate — seeded-bad commits replayed
//! through the `plan()` pre-commit verify pass.
//!
//! A small corpus of entries, shared modules, schemas, and validators is
//! seeded clean, then fifty known-bad commits — ten per defect class — are
//! replayed against it:
//!
//! * **schema-type** — a type-mismatched `export_if_last` payload hidden
//!   in a branch the interpreter never takes (the compiler executes, so
//!   it cannot see it; the verifier's static struct-literal scan can);
//! * **validator-totality** — a `.cvalidator` rewritten so `validate()`
//!   can fall off the end without a `require()`/`fail()` verdict, i.e. a
//!   partial validator that silently passes bad configs;
//! * **reachability** — an `export_if_last` arm under a constant-false
//!   condition: dead config the author believes is live;
//! * **dependency-break** — a shared `.cinc` loses a binding its
//!   dependents still reference, exercising the ripple-graph repair hint;
//! * **const-fold** — an out-of-range port in the payload. Eight of ten
//!   are constant-foldable and caught; two route the port through an
//!   opaque helper call (abstractly `Unknown`), leak past the verifier by
//!   design, and must be caught by the canary model downstream.
//!
//! Every rejection happens **pre-commit** — the repository is untouched.
//! Leaked commits land and are then replayed through a canary-style
//! runtime check of the compiled artifacts (the stand-in for PR 6's
//! rollout gate); nothing may escape both.
//!
//! Stdout is byte-deterministic (catch-rate table, a sample rejection
//! with repair hints, the gates, a counters-only Prometheus export) and
//! is golden-diffed by `repro check` via the `verify_check` entry, which
//! omits the per-commit log. Wall-clock timing is a wall line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use configerator::{CompileOptions, ConfigeratorService, ServiceError};

use crate::compile_exp::counters_only;
use crate::{verdict, Gate, Report};

/// Entry configs in the corpus.
const ENTRIES: usize = 40;
/// Shared `.cinc` modules; every entry imports one.
const MODULES: usize = 4;
/// Schemas (each with a validator); entries round-robin over them.
const SCHEMAS: usize = 2;
/// Seeded-bad commits per defect class.
const PER_CLASS: usize = 10;
/// Of the const-fold class, this many are constant-foldable (the rest
/// hide the bad value behind an opaque call and leak by design).
const FOLDABLE: usize = 8;
/// Required fraction of seeded-bad commits rejected pre-commit.
const CATCH_FLOOR: f64 = 0.80;

const CLASSES: [&str; 5] = [
    "schema-type",
    "validator-totality",
    "reachability",
    "dependency-break",
    "const-fold",
];

fn module_path(m: usize) -> String {
    format!("shared/mod{m}.cinc")
}

fn schema_path(s: usize) -> String {
    format!("schemas/job{s}.schema")
}

fn validator_path(s: usize) -> String {
    format!("schemas/job{s}.cvalidator")
}

fn entry_path(e: usize) -> String {
    format!("app/entry{e:02}.cconf")
}

fn module_src(m: usize) -> String {
    format!(
        "def m{m}_f0(x):\n    y = x * 2 + {m}\n    return y + 1\n\
         def m{m}_port(x):\n    return 70000 + x\n\
         M{m}_C0 = {}\nM{m}_C1 = {}\n",
        100 + 10 * m,
        101 + 10 * m
    )
}

fn schema_src(s: usize) -> String {
    format!("struct Job{s} {{ 1: string name 2: i64 weight = 10 3: i32 port = 8080 }}")
}

fn validator_src(_s: usize) -> String {
    "def validate(cfg):\n    require(cfg.weight >= 0, \"weight must be nonnegative\")\n".to_string()
}

fn entry_src(e: usize) -> String {
    let a = e % MODULES;
    let s = e % SCHEMAS;
    format!(
        "import \"{}\"\nschema \"{}\"\n\
         export_if_last(Job{s} {{ name: \"entry{e:02}\", weight: M{a}_C1 + {e}, port: 8080 }})\n",
        module_path(a),
        schema_path(s)
    )
}

/// The clean source tree.
fn corpus() -> BTreeMap<String, Option<String>> {
    let mut files = BTreeMap::new();
    for m in 0..MODULES {
        files.insert(module_path(m), Some(module_src(m)));
    }
    for s in 0..SCHEMAS {
        files.insert(schema_path(s), Some(schema_src(s)));
        files.insert(validator_path(s), Some(validator_src(s)));
    }
    for e in 0..ENTRIES {
        files.insert(entry_path(e), Some(entry_src(e)));
    }
    files
}

struct BadCommit {
    class: &'static str,
    label: String,
    path: String,
    src: String,
    /// Clean content to land if the commit leaks (restores the tree).
    revert_src: String,
}

fn seeded_bad_commits() -> Vec<BadCommit> {
    let mut commits = Vec::new();

    // schema-type: wrong payload type in a branch the interpreter never
    // takes (the guard calls a helper, so it is abstractly Unknown to the
    // verifier — both arms are walked — but concretely false at runtime).
    for i in 0..PER_CLASS {
        let e = i;
        let (a, s) = (e % MODULES, e % SCHEMAS);
        commits.push(BadCommit {
            class: "schema-type",
            label: format!("schema-type #{i}"),
            path: entry_path(e),
            src: format!(
                "import \"{}\"\nschema \"{}\"\n\
                 if m{a}_f0({i}) > 100000:\n\
                \x20   export_if_last(Job{s} {{ name: {}, weight: 1, port: 8080 }})\n\
                 export_if_last(Job{s} {{ name: \"entry{e:02}\", weight: M{a}_C1 + {e}, port: 8080 }})\n",
                module_path(a),
                schema_path(s),
                400 + i
            ),
            revert_src: entry_src(e),
        });
    }

    // validator-totality: validate() gains a guarded verdict and loses
    // the unconditional one — partial coverage, silently passes configs
    // under the cap.
    for i in 0..PER_CLASS {
        let s = i % SCHEMAS;
        commits.push(BadCommit {
            class: "validator-totality",
            label: format!("validator-totality #{i}"),
            path: validator_path(s),
            src: format!(
                "def validate(cfg):\n    if cfg.weight > {}:\n\
                \x20       fail(\"weight over cap\")\n",
                1000 + i
            ),
            revert_src: validator_src(s),
        });
    }

    // reachability: an export arm under a constant-false condition.
    for i in 0..PER_CLASS {
        let e = 10 + i;
        let (a, s) = (e % MODULES, e % SCHEMAS);
        commits.push(BadCommit {
            class: "reachability",
            label: format!("reachability #{i}"),
            path: entry_path(e),
            src: format!(
                "import \"{}\"\nschema \"{}\"\n\
                 if {i} > {}:\n\
                \x20   export_if_last(Job{s} {{ name: \"dead\", weight: 1, port: 8080 }})\n\
                 export_if_last(Job{s} {{ name: \"entry{e:02}\", weight: {}, port: 8080 }})\n",
                module_path(a),
                schema_path(s),
                i + 1,
                50 + i
            ),
            revert_src: entry_src(e),
        });
    }

    // dependency-break: a shared module renames a constant its ten
    // dependents still reference.
    for i in 0..PER_CLASS {
        let m = i % MODULES;
        commits.push(BadCommit {
            class: "dependency-break",
            label: format!("dependency-break #{i}"),
            path: module_path(m),
            src: format!(
                "def m{m}_f0(x):\n    y = x * 2 + {m}\n    return y + 1\n\
                 def m{m}_port(x):\n    return 70000 + x\n\
                 M{m}_C0 = {}\nM{m}_SPLIT{i} = {}\n",
                100 + 10 * m,
                101 + 10 * m
            ),
            revert_src: module_src(m),
        });
    }

    // const-fold: out-of-range port. The first FOLDABLE are literal and
    // caught; the rest route through an opaque helper and leak.
    for i in 0..PER_CLASS {
        let e = 20 + i;
        let (a, s) = (e % MODULES, e % SCHEMAS);
        let port_expr = if i < FOLDABLE {
            format!("{}", 70000 + i)
        } else {
            format!("m{a}_port({i})")
        };
        commits.push(BadCommit {
            class: "const-fold",
            label: format!("const-fold #{i}"),
            path: entry_path(e),
            src: format!(
                "import \"{}\"\nschema \"{}\"\n\
                 export_if_last(Job{s} {{ name: \"entry{e:02}\", weight: 5, port: {port_expr} }})\n",
                module_path(a),
                schema_path(s)
            ),
            revert_src: entry_src(e),
        });
    }

    commits
}

/// Pulls the integer value of the `"port"` key out of a compiled-artifact
/// JSON blob. The canary model's runtime invariant reads the artifact —
/// the bytes the fleet would actually receive — not the source.
fn artifact_port(json: &str) -> Option<i64> {
    let k = json.find("\"port\"")?;
    let rest = json[k + 6..].trim_start_matches([':', ' ']);
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

#[derive(Default, Clone, Copy)]
struct ClassRow {
    seeded: usize,
    caught: usize,
    leaked: usize,
    canary_caught: usize,
    escaped: usize,
}

struct Replay {
    rows: Vec<(&'static str, ClassRow)>,
    total: ClassRow,
    false_positives: usize,
    clean_probes: usize,
    sample_rejection: String,
    detail: Vec<String>,
    counters: String,
    wall_s: f64,
}

fn replay() -> Replay {
    let start = Instant::now();
    // Serial pipeline: every counter in the Prometheus export is exactly
    // reproducible (parallel workers race on parse-cache attribution).
    let mut svc = ConfigeratorService::with_options(CompileOptions {
        workers: 1,
        incremental: true,
        parse_cache: true,
        verify: true,
    });
    svc.commit_source("verify-bench", "seed", corpus())
        .expect("clean corpus must pass the verify gate");

    let mut rows: BTreeMap<&'static str, ClassRow> = BTreeMap::new();
    let mut sample_rejection = String::new();
    let mut detail = Vec::new();

    for c in seeded_bad_commits() {
        let row = rows.entry(c.class).or_default();
        row.seeded += 1;
        let changes: BTreeMap<String, Option<String>> = [(c.path.clone(), Some(c.src.clone()))]
            .into_iter()
            .collect();
        match svc.commit_source("verify-bench", &c.label, changes) {
            Err(ServiceError::Verify(report)) => {
                row.caught += 1;
                let first = report
                    .findings
                    .iter()
                    .find(|f| f.severity == cdsl::Severity::Error)
                    .map(|f| f.to_string())
                    .unwrap_or_default();
                detail.push(format!("{}: rejected pre-commit — {first}", c.label));
                if c.class == "dependency-break" && sample_rejection.is_empty() {
                    sample_rejection =
                        format!("sample rejection ({} on {}):\n{report}", c.label, c.path);
                }
            }
            Err(other) => {
                // A seeded-bad commit must never die in the compiler: the
                // whole point is that it compiles clean. Surface it.
                detail.push(format!("{}: UNEXPECTED compile error — {other}", c.label));
                row.escaped += 1;
            }
            Ok(rep) => {
                row.leaked += 1;
                let bad_at_runtime = rep.updated_configs.iter().any(|n| {
                    svc.artifact(n)
                        .and_then(|a| artifact_port(&a.json))
                        .is_some_and(|p| !(1..=65535).contains(&p))
                });
                if bad_at_runtime {
                    row.canary_caught += 1;
                    detail.push(format!(
                        "{}: leaked past verify — canary caught out-of-range port at runtime",
                        c.label
                    ));
                } else {
                    row.escaped += 1;
                    detail.push(format!("{}: ESCAPED verify and canary", c.label));
                }
                let revert: BTreeMap<String, Option<String>> =
                    [(c.path, Some(c.revert_src))].into_iter().collect();
                svc.commit_source("verify-bench", "revert leak", revert)
                    .expect("revert of a leaked commit must land");
            }
        }
    }

    // False-positive probe: clean edits must never be rejected — the
    // verifier's zero-false-positive discipline at the commit gate.
    let mut false_positives = 0usize;
    let clean_probes = PER_CLASS;
    for i in 0..clean_probes {
        let e = 30 + i;
        let (a, s) = (e % MODULES, e % SCHEMAS);
        let src = format!(
            "import \"{}\"\nschema \"{}\"\n\
             export_if_last(Job{s} {{ name: \"entry{e:02}\", weight: M{a}_C0 + {}, port: 8080 }})\n",
            module_path(a),
            schema_path(s),
            60 + i
        );
        let changes: BTreeMap<String, Option<String>> =
            [(entry_path(e), Some(src))].into_iter().collect();
        if let Err(err) = svc.commit_source("verify-bench", "clean edit", changes) {
            false_positives += 1;
            detail.push(format!("clean edit #{i}: FALSE POSITIVE — {err}"));
        }
    }

    let ordered: Vec<(&'static str, ClassRow)> = CLASSES
        .iter()
        .map(|c| (*c, rows.get(c).copied().unwrap_or_default()))
        .collect();
    let mut total = ClassRow::default();
    for (_, r) in &ordered {
        total.seeded += r.seeded;
        total.caught += r.caught;
        total.leaked += r.leaked;
        total.canary_caught += r.canary_caught;
        total.escaped += r.escaped;
    }

    Replay {
        rows: ordered,
        total,
        false_positives,
        clean_probes,
        sample_rejection,
        detail,
        counters: counters_only(&svc.metrics().export_prometheus()),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn render(r: &Replay, deterministic: bool, check: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "static verifier — seeded-bad commit replay through the plan() gate"
    );
    let _ = writeln!(
        out,
        "corpus: {ENTRIES} entries | {MODULES} shared modules | {SCHEMAS} schemas + validators"
    );
    let _ = writeln!(
        out,
        "pipeline: mutator commit → static verify (reject pre-commit) → compile → canary model"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "class                seeded  verify-caught  leaked  canary-caught  escaped"
    );
    for (name, row) in r.rows.iter().chain([("total", r.total)].iter()) {
        let _ = writeln!(
            out,
            "{name:<20} {:>6}  {:>13}  {:>6}  {:>13}  {:>7}",
            row.seeded, row.caught, row.leaked, row.canary_caught, row.escaped
        );
    }
    let _ = writeln!(out);
    let rate = 100.0 * r.total.caught as f64 / r.total.seeded.max(1) as f64;
    let _ = writeln!(
        out,
        "catch rate: {}/{} = {rate:.1}% rejected pre-commit (floor {:.0}%); escapes: {}",
        r.total.caught,
        r.total.seeded,
        CATCH_FLOOR * 100.0,
        r.total.escaped
    );
    let _ = writeln!(
        out,
        "false-positive probe: {} clean edits, {} rejected",
        r.clean_probes, r.false_positives
    );
    let _ = writeln!(out);
    out.push_str(&r.sample_rejection);
    let _ = writeln!(out);
    if !check {
        let _ = writeln!(out);
        let _ = writeln!(out, "per-commit log:");
        for d in &r.detail {
            let _ = writeln!(out, "  {d}");
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "gates:");
    for g in gates(r, deterministic) {
        let _ = writeln!(
            out,
            "  {} gate ({}): {}",
            g.name,
            g.detail,
            verdict(g.holds)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "-- pipeline counters (serial verify pipeline) --");
    out.push_str(&r.counters);
    out
}

/// The replay's four gates: the pre-commit catch-rate floor, no escapes,
/// no false positives, and (from the caller's two replays) determinism.
fn gates(r: &Replay, deterministic: bool) -> Vec<Gate> {
    let rate = r.total.caught as f64 / r.total.seeded.max(1) as f64;
    vec![
        Gate::new(
            "catch-rate",
            rate >= CATCH_FLOOR,
            format!(">= {:.0}% rejected pre-commit", CATCH_FLOOR * 100.0),
        ),
        Gate::new(
            "zero-escape",
            r.total.escaped == 0,
            "every leak caught by the canary model",
        ),
        Gate::new(
            "false-positive",
            r.false_positives == 0,
            "clean edits never rejected",
        ),
        Gate::new("determinism", deterministic, "two replays byte-identical"),
    ]
}

/// Runs the seeded-bad replay twice (determinism is part of the report)
/// and returns the deterministic report. `check` omits the per-commit
/// log so the output matches the golden exactly.
pub fn verify(check: bool) -> Report {
    let a = replay();
    let b = replay();
    let deterministic = render(&a, true, true) == render(&b, true, true);
    Report {
        text: render(&a, deterministic, check),
        wall: vec![format!(
            "verify replay: {} seeded-bad + {} clean commits, 2 runs in {:.1} ms",
            a.total.seeded,
            a.clean_probes,
            (a.wall_s + b.wall_s) * 1e3
        )],
        gates: gates(&a, deterministic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_replay_catches_the_floor_and_nothing_escapes() {
        let r = replay();
        assert_eq!(r.total.seeded, CLASSES.len() * PER_CLASS);
        assert_eq!(r.total.caught, 48, "all but the two opaque-port leaks");
        assert_eq!(r.total.leaked, 2);
        assert_eq!(r.total.canary_caught, 2);
        assert_eq!(r.total.escaped, 0);
        assert_eq!(r.false_positives, 0);
        assert!(r.total.caught as f64 / r.total.seeded as f64 >= CATCH_FLOOR);
        assert!(r.sample_rejection.contains("breaks dependent config(s)"));
    }

    #[test]
    fn per_class_catches_are_exact() {
        let r = replay();
        for (name, row) in &r.rows {
            let expect_caught = if *name == "const-fold" {
                FOLDABLE
            } else {
                PER_CLASS
            };
            assert_eq!(row.seeded, PER_CLASS, "{name}");
            assert_eq!(row.caught, expect_caught, "{name}");
            assert_eq!(row.escaped, 0, "{name}");
        }
    }

    #[test]
    fn check_report_is_byte_deterministic() {
        assert_eq!(verify(true).text, verify(true).text);
    }

    #[test]
    fn artifact_port_extraction() {
        assert_eq!(
            artifact_port("{\"name\": \"x\", \"port\": 70008}"),
            Some(70008)
        );
        assert_eq!(artifact_port("{\"port\":8080,\"weight\":12}"), Some(8080));
        assert_eq!(artifact_port("{\"weight\": 12}"), None);
    }
}
