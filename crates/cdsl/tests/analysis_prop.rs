//! Property tests for the static verifier (`cdsl::analysis`).
//!
//! First, five hundred seeded random mutations of a small config corpus,
//! checking the three properties the commit gate depends on:
//!
//! 1. **Never panics** — whatever the mutation does to the source (parse
//!    errors, unbound names, truncated lines), `Verifier::verify` returns
//!    a report; it never takes the process down with it.
//! 2. **Zero false positives** — if the real compiler compiles and
//!    validates every entry of the mutated tree cleanly, the verifier
//!    reports no `Error`-severity finding (warnings are fine: they do not
//!    reject commits).
//! 3. **Byte-determinism** — two independent verifier runs over the same
//!    tree render byte-identical reports.
//!
//! Mutations target `.cconf` / `.cinc` files only. Schemas and validators
//! are the *specification* the verifier checks against — a mutated-partial
//! validator is a true positive by design (the `repro verify` experiment
//! covers those), so mutating them here would make property 2 vacuous.
//!
//! Then, a hundred thousand seeded random expressions over the values at
//! which arithmetic breaks, checking that the verifier's constant
//! evaluation and the interpreter are one language: see
//! `constant_evaluation_agrees_with_the_interpreter`.

use std::collections::BTreeMap;

use cdsl::analysis::const_eval;
use cdsl::compile::Compiler;
use cdsl::interp::eval_expression;
use cdsl::parser::parse_expr;
use cdsl::{Severity, Verifier};

/// Deterministic xorshift64* — the tests must replay identically forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const ENTRIES: [&str; 3] = ["app/t0.cconf", "app/t1.cconf", "app/t2.cconf"];

/// The base corpus. Module helper functions reference only their own
/// params and locals, and every entry statement executes at compile time —
/// so any name a mutation breaks statically is also broken dynamically,
/// which is exactly what makes property 2 falsifiable rather than vacuous.
fn base_corpus() -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    files.insert(
        "shared/a.cinc".to_string(),
        "def a_f(x):\n    y = x + 3\n    return y * 2\nA_LIM = 40\nA_BASE = 100\n".to_string(),
    );
    files.insert(
        "shared/b.cinc".to_string(),
        "B_SCALE = 3\nB_NAMES = [\"red\", \"blue\"]\n".to_string(),
    );
    files.insert(
        "schemas/task.schema".to_string(),
        "struct Task { 1: string name 2: i64 weight = 10 3: optional list<string> tags }"
            .to_string(),
    );
    files.insert(
        "schemas/task.cvalidator".to_string(),
        "def validate(cfg):\n    require(cfg.weight >= 0, \"weight must be nonnegative\")\n"
            .to_string(),
    );
    files.insert(
        "app/t0.cconf".to_string(),
        "import \"shared/a.cinc\"\nschema \"schemas/task.schema\"\n\
         export_if_last(Task { name: \"t0\", weight: a_f(A_LIM) + A_BASE, tags: [\"red\"] })\n"
            .to_string(),
    );
    files.insert(
        "app/t1.cconf".to_string(),
        "import \"shared/b.cinc\"\nschema \"schemas/task.schema\"\n\
         export_if_last(Task { name: \"t1\", weight: B_SCALE * 7, tags: B_NAMES })\n"
            .to_string(),
    );
    files.insert(
        "app/t2.cconf".to_string(),
        "import \"shared/a.cinc\"\nimport \"shared/b.cinc\"\nschema \"schemas/task.schema\"\n\
         export_if_last(Task { name: \"t2\", weight: a_f(B_SCALE) + A_LIM })\n"
            .to_string(),
    );
    files
}

/// Applies one random mutation to one random `.cconf`/`.cinc` file.
fn mutate(files: &mut BTreeMap<String, String>, rng: &mut Rng) {
    let targets: Vec<String> = files
        .keys()
        .filter(|p| p.ends_with(".cconf") || p.ends_with(".cinc"))
        .cloned()
        .collect();
    let path = targets[rng.below(targets.len())].clone();
    let src = files.get(&path).unwrap().clone();
    let lines: Vec<&str> = src.lines().collect();
    let mutated = match rng.below(6) {
        // Tweak one digit.
        0 => {
            let digits: Vec<usize> = src
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                return;
            }
            let at = digits[rng.below(digits.len())];
            let mut s = src.clone();
            s.replace_range(at..at + 1, &format!("{}", rng.below(10)));
            s
        }
        // Delete one line.
        1 => {
            let k = rng.below(lines.len());
            let mut kept: Vec<&str> = lines.clone();
            kept.remove(k);
            kept.join("\n") + "\n"
        }
        // Duplicate one line.
        2 => {
            let k = rng.below(lines.len());
            let mut v: Vec<&str> = lines.clone();
            v.insert(k, lines[k]);
            v.join("\n") + "\n"
        }
        // Swap two adjacent lines.
        3 => {
            if lines.len() < 2 {
                return;
            }
            let k = rng.below(lines.len() - 1);
            let mut v: Vec<&str> = lines.clone();
            v.swap(k, k + 1);
            v.join("\n") + "\n"
        }
        // Break one identifier reference (classic fat-fingered rename).
        4 => {
            let names = ["A_LIM", "A_BASE", "B_SCALE", "B_NAMES", "a_f"];
            let n = names[rng.below(names.len())];
            match src.find(n) {
                None => return,
                Some(at) => {
                    let mut s = src.clone();
                    s.replace_range(at..at + n.len(), &format!("{n}_typo"));
                    s
                }
            }
        }
        // Truncate the file mid-byte (torn write).
        _ => {
            if src.len() < 4 {
                return;
            }
            let cut = 1 + rng.below(src.len() - 1);
            if !src.is_char_boundary(cut) {
                return;
            }
            src[..cut].to_string()
        }
    };
    files.insert(path, mutated);
}

/// Whether the real compiler accepts every entry of the tree (compiles
/// AND validates clean) — the ground truth for the false-positive check.
fn compiles_clean(files: &BTreeMap<String, String>) -> bool {
    let compiler = Compiler::new(files);
    ENTRIES.iter().all(|e| compiler.compile(e).is_ok())
}

fn render(files: &BTreeMap<String, String>) -> String {
    let verifier = Verifier::new(files);
    let entries: Vec<String> = ENTRIES.iter().map(|s| s.to_string()).collect();
    format!("{}", verifier.verify(&entries))
}

#[test]
fn base_corpus_is_clean_under_compiler_and_verifier() {
    let files = base_corpus();
    assert!(compiles_clean(&files), "base corpus must compile");
    let verifier = Verifier::new(&files);
    let entries: Vec<String> = ENTRIES.iter().map(|s| s.to_string()).collect();
    let report = verifier.verify(&entries);
    assert!(
        !report.has_errors(),
        "base corpus must verify clean, got:\n{report}"
    );
}

#[test]
fn five_hundred_seeded_mutations_no_panic_no_false_positive_deterministic() {
    let mut rng = Rng(0x5EED_CD51);
    let mut clean_trees = 0usize;
    let mut rejected_trees = 0usize;
    for round in 0..500 {
        let mut files = base_corpus();
        // 1–3 stacked mutations: single-edit commits are the common case,
        // multi-edit commits shake out interactions between checks.
        for _ in 0..1 + rng.below(3) {
            mutate(&mut files, &mut rng);
        }

        // Property 1 (no panic) is implicit in the calls below; property 3
        // is the byte-equality of two independent runs.
        let a = render(&files);
        let b = render(&files);
        assert_eq!(a, b, "round {round}: verifier report is nondeterministic");

        // Property 2: a tree the compiler fully accepts must not carry a
        // single Error-severity finding.
        if compiles_clean(&files) {
            clean_trees += 1;
            let verifier = Verifier::new(&files);
            let entries: Vec<String> = ENTRIES.iter().map(|s| s.to_string()).collect();
            let report = verifier.verify(&entries);
            let errors: Vec<String> = report
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .map(|f| f.to_string())
                .collect();
            assert!(
                errors.is_empty(),
                "round {round}: false positive on a compile-clean tree:\n{}\ntree:\n{:?}",
                errors.join("\n"),
                files
            );
        } else {
            rejected_trees += 1;
        }
    }
    // The property is only meaningful if both sides of the split actually
    // occur; a mutator that always breaks the tree would make the
    // false-positive assertion vacuous.
    assert!(
        clean_trees >= 50,
        "only {clean_trees} of 500 mutated trees compiled clean"
    );
    assert!(
        rejected_trees >= 50,
        "only {rejected_trees} of 500 mutated trees failed to compile"
    );
}

/// A random expression, `depth` operators deep at most, over the atoms
/// where the language's arithmetic and lookups break: the ends of `i64`,
/// 2^62 (whose double overflows), a float next to overflow, zero, empty and
/// non-empty strings, lists and dicts.
fn random_expr(rng: &mut Rng, depth: usize) -> String {
    let huge_float = format!("1{}.0", "0".repeat(308));
    let atoms = [
        "9223372036854775807",
        "(-9223372036854775807 - 1)",
        "4611686018427387904",
        "0",
        "-1",
        "1",
        "2",
        "0.5",
        huge_float.as_str(),
        "\"\"",
        "\"ab\"",
        "\"a\"",
        "[]",
        "[1, 2]",
        "[0.5, 9223372036854775807]",
        "{}",
        "{\"a\": 1}",
        "true",
        "false",
        "null",
    ];
    if depth == 0 || rng.below(4) == 0 {
        return atoms[rng.below(atoms.len())].to_string();
    }
    let sub = |rng: &mut Rng| random_expr(rng, depth - 1);
    let binary = [
        "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or", "in", "not in",
    ];
    let builtins = ["abs", "sum", "min", "max", "int", "float", "len", "range"];
    match rng.below(10) {
        0..=4 => {
            let op = binary[rng.below(binary.len())];
            format!("({} {op} {})", sub(rng), sub(rng))
        }
        5 => format!("(-{})", sub(rng)),
        6 => format!("(not {})", sub(rng)),
        7 => format!("{}[{}]", sub(rng), sub(rng)),
        8 => format!("({} if {} else {})", sub(rng), sub(rng), sub(rng)),
        _ => {
            let f = builtins[rng.below(builtins.len())];
            if rng.below(2) == 0 {
                format!("{f}({})", sub(rng))
            } else {
                format!("{f}({}, {})", sub(rng), sub(rng))
            }
        }
    }
}

#[test]
fn constant_evaluation_agrees_with_the_interpreter() {
    let mut rng = Rng(0xC0FF_EE00_5EED);
    let (mut folded, mut errors) = (0usize, 0usize);
    for round in 0..100_000 {
        let src = random_expr(&mut rng, 3);
        let expr = parse_expr(&src, "<prop>").unwrap_or_else(|e| panic!("round {round}: {e}"));
        // The interpreter must come back, whatever the arithmetic does —
        // under `cargo test --release` as under `cargo test`.
        let interpreted = eval_expression(&src);
        match (const_eval(&expr), &interpreted) {
            (None, Ok(_)) => {}
            (None, Err(_)) => errors += 1,
            (Some(constant), Ok(value)) => {
                folded += 1;
                // `==` lets 2 equal 2.0 and NaN differ from itself; the
                // artifact is what has to be the same.
                assert_eq!(
                    (constant.type_name(), constant.to_json()),
                    (value.type_name(), value.to_json()),
                    "round {round}: the verifier and the interpreter disagree on {src}"
                );
            }
            (Some(constant), Err(e)) => panic!(
                "round {round}: the verifier folds {src} to {constant}, the interpreter says {e}"
            ),
        }
    }
    // Both sides of each property must actually occur.
    assert!(folded >= 10_000, "only {folded} expressions folded");
    assert!(errors >= 10_000, "only {errors} expressions failed");
}
