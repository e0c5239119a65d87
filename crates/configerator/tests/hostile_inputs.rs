//! Hostile sources: things an author can commit (or type into the Sitevars
//! UI) that used to take the process down — or, worse, compile to a
//! different artifact depending on the build profile.
//!
//! One table, driven through every way a source reaches the language:
//! `Compiler::compile`, `Verifier::verify`, the Sitevars expression path
//! (`SitevarStore::set`, i.e. `cdsl::interp::eval_expression`), and
//! `ConfigeratorService::commit_source` compiling serially and on four
//! workers. Every row is rejected with the kind of error it names — never a
//! panic, never a stack overflow — on a 2 MiB stack, which is what a test
//! thread and a compile worker get. The assertions do not mention the build
//! profile, and `scripts/check.sh` runs this file under both.

use std::collections::BTreeMap;

use cdsl::{Compiler, ErrorKind, Verifier};
use configerator::{CompileOptions, ConfigeratorService, ServiceError};
use sitevars::{SitevarError, SitevarStore};

const ENTRY: &str = "main.cconf";
const MIN: &str = "(-9223372036854775807 - 1)";

enum Source {
    /// A bare expression: the entry exports it, and Sitevars evaluates it.
    Expr(String),
    /// A source tree whose entry is [`ENTRY`].
    Files(Vec<(String, String)>),
}

type Expect = fn(&ErrorKind) -> bool;

fn overflow(kind: &ErrorKind) -> bool {
    matches!(kind, ErrorKind::Eval(m) if m.starts_with("integer overflow in "))
}

fn budget(kind: &ErrorKind) -> bool {
    matches!(kind, ErrorKind::Budget(_))
}

fn too_deep(kind: &ErrorKind) -> bool {
    matches!(kind, ErrorKind::Parse(m) if m.contains("nested"))
}

fn bad_schema(kind: &ErrorKind) -> bool {
    matches!(kind, ErrorKind::Schema(_))
}

fn program(src: String) -> Source {
    Source::Files(vec![(ENTRY.to_string(), src)])
}

fn with_schema(schema: String) -> Source {
    Source::Files(vec![
        ("s.schema".to_string(), schema),
        (
            ENTRY.to_string(),
            "schema \"s.schema\"\nexport_if_last(1)\n".to_string(),
        ),
    ])
}

fn table() -> Vec<(&'static str, Source, Expect)> {
    let expr = Source::Expr;
    let nested_ifs: String = (0..3000)
        .map(|depth| format!("{}if true:\n", " ".repeat(depth)))
        .collect();
    let mut import_chain: Vec<(String, String)> = (1..3000)
        .map(|i| {
            (
                format!("m{i}.cinc"),
                format!("import \"m{}.cinc\"\n", i + 1),
            )
        })
        .collect();
    import_chain.push(("m3000.cinc".to_string(), "X = 1\n".to_string()));
    import_chain.push((
        ENTRY.to_string(),
        "import \"m1.cinc\"\nexport_if_last(X)\n".to_string(),
    ));
    vec![
        // Arithmetic: checked everywhere, the same in every build profile.
        ("MIN % -1", expr(format!("{MIN} % -1")), overflow),
        ("-MIN", expr(format!("-{MIN}")), overflow),
        ("abs(MIN)", expr(format!("abs({MIN})")), overflow),
        (
            "sum past MAX",
            expr("sum([9223372036854775807, 1])".to_string()),
            overflow,
        ),
        (
            "a range wider than i64",
            expr(format!("range({MIN}, 4611686018427387904)")),
            budget,
        ),
        // Syntax nesting: the parser refuses before anything recurses.
        (
            "1,000 nested parentheses",
            expr(format!("{}1{}", "(".repeat(1000), ")".repeat(1000))),
            too_deep,
        ),
        (
            "1,000 nested list displays",
            expr(format!("{}1{}", "[".repeat(1000), "]".repeat(1000))),
            too_deep,
        ),
        (
            "10,000 unary minuses",
            expr(format!("{}1", "-".repeat(10_000))),
            too_deep,
        ),
        (
            "10,000 nots",
            expr(format!("{}true", "not ".repeat(10_000))),
            too_deep,
        ),
        (
            "a 100,000-term sum",
            expr(format!("0{}", " + 1".repeat(100_000))),
            too_deep,
        ),
        (
            "a 3,000-arm conditional expression",
            expr(format!("{}0", "1 if false else ".repeat(3000))),
            too_deep,
        ),
        (
            "10,000 postfix calls",
            expr(format!("len{}", "()".repeat(10_000))),
            too_deep,
        ),
        (
            "3,000 nested ifs",
            program(format!("{nested_ifs}{}x = 1\n", " ".repeat(3000))),
            too_deep,
        ),
        (
            "a 3,000-arm elif chain",
            program(format!(
                "if false:\n    x = 0\n{}export_if_last(1)\n",
                "elif false:\n    x = 1\n".repeat(3000)
            )),
            too_deep,
        ),
        (
            "a field type nested 10,000 deep",
            with_schema(format!(
                "struct S {{ 1: {}i64{} f }}",
                "list<".repeat(10_000),
                ">".repeat(10_000)
            )),
            bad_schema,
        ),
        (
            "an enum numbered past MAX",
            with_schema("enum E { A = 9223372036854775807, B }".to_string()),
            bad_schema,
        ),
        // Evaluation nesting: 204 bytes of source, 60 call levels (under
        // `Limits::max_depth`) of 30 nested operators each.
        (
            "recursion through 30 nested operators",
            program(format!(
                "def f(k):\n    if k == 0:\n        return 0\n    return {}f(k - 1){}\nexport_if_last(f(60))\n",
                "(0+".repeat(30),
                ")".repeat(30)
            )),
            budget,
        ),
        ("a 3,000-file import chain", Source::Files(import_chain), budget),
    ]
}

/// The entry's compile error out of a rejected commit. A commit the static
/// verifier rejects first is rejected all the same.
fn commit_error(workers: usize, files: &BTreeMap<String, String>) -> Option<ErrorKind> {
    let mut service = ConfigeratorService::with_options(CompileOptions {
        workers,
        ..CompileOptions::default()
    });
    let mut changes: BTreeMap<String, Option<String>> = files
        .iter()
        .map(|(path, src)| (path.clone(), Some(src.clone())))
        .collect();
    // Well-behaved neighbours, so that four workers have work to share.
    for i in 0..4 {
        changes.insert(
            format!("ok{i}.cconf"),
            Some(format!("export_if_last({i})\n")),
        );
    }
    match service.commit_source("mallory", "hostile", changes) {
        Ok(report) => panic!("accepted: {:?}", report.updated_configs),
        Err(ServiceError::Verify(_)) => None,
        Err(ServiceError::CompileMany(failures)) => {
            assert_eq!(failures.len(), 1, "the neighbours compile: {failures:?}");
            assert_eq!(failures[0].entry, ENTRY);
            Some(failures[0].error.kind.clone())
        }
        Err(other) => panic!("unexpected rejection: {other}"),
    }
}

#[test]
fn every_hostile_source_is_rejected_with_its_error_kind_on_a_2_mib_stack() {
    let probe = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        for (what, source, expected) in table() {
            let files: BTreeMap<String, String> = match &source {
                Source::Expr(e) => {
                    BTreeMap::from([(ENTRY.to_string(), format!("export_if_last({e})\n"))])
                }
                Source::Files(files) => files.iter().cloned().collect(),
            };

            let e = Compiler::new(&files).compile(ENTRY).expect_err(what);
            assert!(expected(&e.kind), "{what}: Compiler::compile says {e}");

            // The verifier has nothing to execute; it must only come back.
            let report = Verifier::new(&files).verify(&[ENTRY.to_string()]);
            assert!(!report.to_string().is_empty());

            if let Source::Expr(expr) = &source {
                match SitevarStore::new().set("hostile", expr) {
                    Err(SitevarError::Expr(e)) => {
                        assert!(expected(&e.kind), "{what}: Sitevars says {e}")
                    }
                    other => panic!("{what}: Sitevars says {other:?}"),
                }
            }

            for workers in [1, 4] {
                if let Some(kind) = commit_error(workers, &files) {
                    assert!(
                        expected(&kind),
                        "{what}: commit_source on {workers} worker(s) says {kind:?}"
                    );
                }
            }
        }
    });
    probe
        .expect("spawn")
        .join()
        .expect("no hostile source may panic");
}

#[test]
fn a_sitevar_string_of_deeply_nested_brackets_is_stored_not_a_stack_overflow() {
    // Type inference asks whether a string parses as JSON; 200,000 open
    // brackets used to recurse once each in that parser and abort the
    // process. Unparseable, the string is classified as a plain string.
    let probe = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        let expr = format!("\"{}\"", "[".repeat(200_000));
        let outcome = SitevarStore::new().set("hostile", &expr).expect("stored");
        assert!(outcome.warnings.is_empty());
    });
    probe.expect("spawn").join().expect("no panic");
}
