//! The evaluated-module store against its oracle: a compiler without the
//! store. Every scenario compiles each entry both ways — the store side
//! sharing one `ModuleStore` across all the entries of the scenario, in
//! order, so later entries link what earlier ones evaluated — and demands
//! the same `CompiledConfig` field by field, or the same error with the
//! same path, line and text.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cdsl::compile::{CompiledConfig, Compiler};
use cdsl::{CdslError, ErrorKind, Limits, Loader, ModuleStore, ParseCache};

type Files = BTreeMap<String, String>;

fn files(entries: &[(&str, &str)]) -> Files {
    entries
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn assert_same(
    entry: &str,
    oracle: &Result<CompiledConfig, CdslError>,
    got: &Result<CompiledConfig, CdslError>,
) {
    match (oracle, got) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.json, b.json, "{entry}: json");
            assert_eq!(a.value, b.value, "{entry}: value");
            assert_eq!(a.type_name, b.type_name, "{entry}: type_name");
            assert_eq!(a.deps, b.deps, "{entry}: deps");
            assert_eq!(
                a.validators_run, b.validators_run,
                "{entry}: validators_run"
            );
            assert_eq!(a.probed_absent, b.probed_absent, "{entry}: probed_absent");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{entry}: error"),
        (a, b) => panic!("{entry}: oracle {a:?} but with the store {b:?}"),
    }
}

/// Compiles `entries` in order without and with one shared store, checks
/// they agree, and returns the oracle's results with the store.
fn check(
    fs: &dyn Loader,
    entries: &[&str],
    limits: Limits,
) -> (Vec<Result<CompiledConfig, CdslError>>, ModuleStore) {
    let cache = ParseCache::new();
    let store = ModuleStore::with_limits(limits);
    let mut out = Vec::new();
    for entry in entries {
        let oracle = Compiler::new(fs).with_limits(limits).compile(entry);
        let got = Compiler::new(fs)
            .with_limits(limits)
            .with_cache(&cache)
            .with_module_store(&store)
            .compile(entry);
        assert_same(entry, &oracle, &got);
        out.push(oracle);
    }
    (out, store)
}

fn json(r: &Result<CompiledConfig, CdslError>) -> &str {
    r.as_ref().expect("compiles").json.trim()
}

#[test]
fn import_order_decides_shadowing() {
    let fs = files(&[
        ("m.cinc", "X = 5\nY = 6"),
        ("n.cinc", "X = 7"),
        ("before.cconf", "X = 1\nimport \"m.cinc\"\nexport_if_last([X, Y])"),
        ("after.cconf", "import \"m.cinc\"\nX = 1\nexport_if_last([X, Y])"),
        (
            "later_import_wins.cconf",
            "import \"m.cinc\"\nimport \"n.cinc\"\nexport_if_last([X, Y])",
        ),
        (
            "reimport.cconf",
            "import \"n.cinc\"\nimport \"m.cinc\"\nX = 1\nimport \"n.cinc\"\nexport_if_last([X, Y])",
        ),
    ]);
    let entries = [
        "before.cconf",
        "after.cconf",
        "later_import_wins.cconf",
        "reimport.cconf",
    ];
    let (out, store) = check(&fs, &entries, Limits::default());
    let flat = |r| json(r).replace([' ', '\n'], "");
    assert_eq!(flat(&out[0]), "[5,6]");
    assert_eq!(flat(&out[1]), "[1,6]");
    assert_eq!(flat(&out[2]), "[7,6]");
    assert_eq!(flat(&out[3]), "[7,6]");
    assert_eq!(store.shared(), 2);
}

#[test]
fn transitive_imports_reexport_and_list_deps() {
    let fs = files(&[
        ("c.cinc", "C = 1\nSHADOWED = \"c\""),
        ("b.cinc", "import \"c.cinc\"\nB = C + 1\nSHADOWED = \"b\""),
        ("a.cinc", "import \"b.cinc\"\nA = B + C"),
        ("left.cinc", "import \"c.cinc\"\nL = C"),
        (
            "main.cconf",
            "import \"a.cinc\"\nexport_if_last([A, B, C, SHADOWED])",
        ),
        // A diamond: c.cinc arrives twice and is evaluated once.
        (
            "diamond.cconf",
            "import \"b.cinc\"\nimport \"left.cinc\"\nexport_if_last([B, L, SHADOWED])",
        ),
    ]);
    let (out, store) = check(&fs, &["main.cconf", "diamond.cconf"], Limits::default());
    let main = out[0].as_ref().unwrap();
    assert_eq!(main.deps, vec!["a.cinc", "b.cinc", "c.cinc"]);
    assert_eq!(main.json.replace([' ', '\n'], ""), "[3,2,1,\"b\"]");
    let diamond = out[1].as_ref().unwrap();
    // left.cinc re-exports c.cinc's SHADOWED, and is imported last.
    assert_eq!(diamond.json.replace([' ', '\n'], ""), "[2,1,\"c\"]");
    assert_eq!(store.shared(), 4);
}

#[test]
fn functions_bind_late_against_their_defining_module() {
    let fs = files(&[
        (
            "m.cinc",
            "def f():\n    return helper() + K\ndef helper():\n    return 100\nK = 5",
        ),
        // The importer's own K and helper are not what f sees.
        (
            "main.cconf",
            "import \"m.cinc\"\nK = 9\ndef helper():\n    return 0\nexport_if_last([f(), K])",
        ),
    ]);
    let (out, _) = check(&fs, &["main.cconf", "main.cconf"], Limits::default());
    assert_eq!(json(&out[0]).replace([' ', '\n'], ""), "[105,9]");
}

const JOB_SCHEMA: &str = "struct Job { 1: string name 2: i64 mem = 64 }";

#[test]
fn module_needing_the_importers_schema_is_evaluated_in_context() {
    let fs = files(&[
        ("job.schema", JOB_SCHEMA),
        // No `schema` statement of its own: evaluating it alone fails.
        ("defaults.cinc", "DEFAULT = Job { name: \"d\" }"),
        ("plain.cinc", "P = 1"),
        (
            "main.cconf",
            "schema \"job.schema\"\nimport \"plain.cinc\"\nimport \"defaults.cinc\"\nexport_if_last(DEFAULT)",
        ),
        (
            "other.cconf",
            "schema \"job.schema\"\nimport \"defaults.cinc\"\nexport_if_last(Job { name: DEFAULT.name, mem: 1 })",
        ),
        // Without the schema the module fails where it always failed.
        ("broken.cconf", "import \"defaults.cinc\"\nexport_if_last(DEFAULT)"),
    ]);
    let (out, store) = check(
        &fs,
        &["main.cconf", "other.cconf", "broken.cconf"],
        Limits::default(),
    );
    assert!(json(&out[0]).contains("\"mem\": 64"));
    let e = out[2].as_ref().unwrap_err();
    assert_eq!(
        (e.location.path.as_str(), e.location.line),
        ("defaults.cinc", 1)
    );
    assert_eq!(store.shared(), 1, "only plain.cinc is shareable");
}

#[test]
fn in_context_module_inside_a_shared_one() {
    // needs.cinc only evaluates where Job is loaded. wrap.cinc loads it, so
    // wrap.cinc is shareable and carries its own evaluation of needs.cinc.
    let fs = files(&[
        ("job.schema", JOB_SCHEMA),
        ("needs.cinc", "N = Job { name: \"n\" }"),
        ("wrap.cinc", "schema \"job.schema\"\nimport \"needs.cinc\"\nW = N.mem + 1"),
        ("first.cconf", "import \"wrap.cinc\"\nimport \"needs.cinc\"\nexport_if_last([W, N.mem])"),
        // Here needs.cinc is evaluated by the entry before wrap.cinc
        // arrives with another evaluation of it: wrap.cinc must then run
        // in context and pick up the entry's.
        (
            "second.cconf",
            "schema \"job.schema\"\nimport \"needs.cinc\"\nimport \"wrap.cinc\"\nexport_if_last([W, N.mem])",
        ),
    ]);
    let (out, store) = check(
        &fs,
        &["first.cconf", "second.cconf", "first.cconf"],
        Limits::default(),
    );
    assert_eq!(json(&out[0]).replace([' ', '\n'], ""), "[65,64]");
    assert_eq!(
        out[0].as_ref().unwrap().deps,
        vec!["job.schema", "needs.cinc", "wrap.cinc"]
    );
    assert_eq!(store.shared(), 1);
}

#[test]
fn import_cycle_reports_the_importers_chain() {
    let fs = files(&[
        ("a.cinc", "import \"b.cinc\""),
        ("b.cinc", "import \"a.cinc\""),
        ("main.cconf", "import \"a.cinc\"\nexport_if_last(1)"),
        ("self.cconf", "import \"self.cconf\"\nexport_if_last(1)"),
    ]);
    let (out, store) = check(
        &fs,
        &["main.cconf", "self.cconf", "main.cconf"],
        Limits::default(),
    );
    let e = out[0].as_ref().unwrap_err();
    assert_eq!(
        e.kind,
        ErrorKind::ImportCycle("main.cconf -> a.cinc -> b.cinc -> a.cinc".into())
    );
    assert_eq!(store.shared(), 0);
}

#[test]
fn step_budget_is_charged_as_if_the_module_ran_here() {
    let fs = files(&[
        (
            "loop.cinc",
            "T = 0\nfor i in range(40):\n    T = T + i\nDONE = T",
        ),
        ("light.cinc", "import \"loop.cinc\"\nL = DONE"),
        (
            "main.cconf",
            "x = 1 + 2 + 3\nimport \"light.cinc\"\nimport \"loop.cinc\"\nexport_if_last(L + x)",
        ),
    ]);
    // The smallest budget under which the oracle compiles.
    let limits = |max_steps| Limits {
        max_steps,
        ..Limits::default()
    };
    let enough = (1..2_000)
        .find(|&n| {
            Compiler::new(&fs)
                .with_limits(limits(n))
                .compile("main.cconf")
                .is_ok()
        })
        .expect("compiles under some budget");
    // At every budget around the module's cost — exhausted in the entry
    // before the import, inside the nested module's loop, after it — the
    // store side succeeds or fails exactly as the oracle, at the same
    // path and line, whether the module is being evaluated for the first
    // time (first compile) or linked (second).
    let mut failed_in = std::collections::BTreeSet::new();
    for n in (1..enough + 3).rev() {
        let (out, _) = check(&fs, &["main.cconf", "main.cconf"], limits(n));
        assert_eq!(out[0].is_ok(), n >= enough, "budget {n}");
        if let Err(e) = &out[0] {
            assert!(matches!(e.kind, ErrorKind::Budget(_)), "budget {n}: {e}");
            failed_in.insert(e.location.path.clone());
        }
    }
    assert_eq!(
        failed_in.into_iter().collect::<Vec<_>>(),
        vec!["light.cinc", "loop.cinc", "main.cconf"]
    );
}

#[test]
fn conflicting_schema_redefinition_through_a_shared_module() {
    let fs = files(&[
        ("a.schema", "struct T { 1: i64 x = 1 }"),
        ("b.schema", "struct T { 1: string x }"),
        ("uses_a.cinc", "schema \"a.schema\"\nA = T {}"),
        ("fine.cconf", "import \"uses_a.cinc\"\nexport_if_last(A)"),
        (
            "clash.cconf",
            "schema \"b.schema\"\nimport \"uses_a.cinc\"\nexport_if_last(A)",
        ),
        // Loading the same definitions first is no conflict, and keeps
        // `a.schema` (not the module) as the first loader on record.
        (
            "same.cconf",
            "schema \"a.schema\"\nimport \"uses_a.cinc\"\nexport_if_last(A)",
        ),
    ]);
    let (out, store) = check(
        &fs,
        &["fine.cconf", "clash.cconf", "same.cconf"],
        Limits::default(),
    );
    let e = out[1].as_ref().unwrap_err();
    assert_eq!(
        e.kind,
        ErrorKind::Schema("conflicting redefinition of type T".into())
    );
    assert_eq!(e.location.path, "a.schema");
    assert_eq!(out[0].as_ref().unwrap().probed_absent, vec!["a.cvalidator"]);
    assert_eq!(store.shared(), 1);
}

#[test]
fn validators_run_through_the_store() {
    let fs = files(&[
        ("job.schema", JOB_SCHEMA),
        ("floor.cinc", "FLOOR = 64"),
        (
            "job.cvalidator",
            "import \"floor.cinc\"\ndef validate(cfg):\n    require(cfg.mem >= FLOOR, \"mem below floor\")",
        ),
        ("extra.cvalidator", "def validate(cfg):\n    require(cfg.name != \"root\", \"reserved\")"),
        ("ok.cconf", "schema \"job.schema\"\nexport_if_last(Job { name: \"a\" })"),
        ("small.cconf", "schema \"job.schema\"\nexport_if_last(Job { name: \"b\", mem: 1 })"),
        ("root.cconf", "schema \"job.schema\"\nexport_if_last(Job { name: \"root\" })"),
    ]);
    let cache = ParseCache::new();
    let store = ModuleStore::new();
    for entry in ["ok.cconf", "small.cconf", "root.cconf", "ok.cconf"] {
        let mut oracle = Compiler::new(&fs);
        oracle.register_validator("Job", "extra.cvalidator");
        let mut shared = Compiler::new(&fs)
            .with_cache(&cache)
            .with_module_store(&store);
        shared.register_validator("Job", "extra.cvalidator");
        assert_same(entry, &oracle.compile(entry), &shared.compile(entry));
    }
    let ok = Compiler::new(&fs)
        .with_module_store(&store)
        .compile("ok.cconf")
        .unwrap();
    assert_eq!(ok.validators_run, vec!["job.cvalidator"]);
    assert_eq!(ok.deps, vec!["floor.cinc", "job.cvalidator", "job.schema"]);
    assert_eq!(store.shared(), 3);
}

/// A loader that counts loads per path.
struct Counting {
    files: Files,
    loads: Mutex<BTreeMap<String, usize>>,
    total: AtomicUsize,
}

impl Loader for Counting {
    fn load(&self, path: &str) -> Option<String> {
        self.total.fetch_add(1, Ordering::Relaxed);
        *self
            .loads
            .lock()
            .expect("no panics under the lock")
            .entry(path.to_string())
            .or_default() += 1;
        self.files.get(path).cloned()
    }
}

#[test]
fn a_module_is_loaded_and_evaluated_once_for_all_importers() {
    let mut fs = files(&[("hot.cinc", "def hot(x):\n    return x * K\nK = 3")]);
    let entries: Vec<String> = (0..40).map(|i| format!("e{i:02}.cconf")).collect();
    for (i, e) in entries.iter().enumerate() {
        fs.insert(
            e.clone(),
            format!("import \"hot.cinc\"\nexport_if_last(hot({i}))"),
        );
    }
    let oracle: Vec<String> = entries
        .iter()
        .map(|e| Compiler::new(&fs).compile(e).unwrap().json)
        .collect();
    let loader = Counting {
        files: fs,
        loads: Mutex::default(),
        total: AtomicUsize::new(0),
    };
    let cache = ParseCache::new();
    let store = ModuleStore::new();
    // Four workers drain the entries, sharing the cache and the store.
    let next = AtomicUsize::new(0);
    let results: Mutex<BTreeMap<usize, String>> = Mutex::default();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = entries.get(i) else { break };
                let out = Compiler::new(&loader)
                    .with_cache(&cache)
                    .with_module_store(&store)
                    .compile(entry)
                    .unwrap();
                assert_eq!(out.deps, vec!["hot.cinc"]);
                results.lock().unwrap().insert(i, out.json);
            });
        }
    });
    let results: Vec<String> = results.into_inner().unwrap().into_values().collect();
    assert_eq!(results, oracle);
    assert_eq!(store.shared(), 1);
    // Workers that reach the module before anyone has published it each
    // evaluate it (at most one per worker); nobody loads it after that.
    let hot_loads = loader.loads.lock().unwrap()["hot.cinc"];
    assert!(
        (1..=4).contains(&hot_loads),
        "hot.cinc loaded {hot_loads} times"
    );
    assert_eq!(loader.total.load(Ordering::Relaxed), 40 + hot_loads);
}

#[test]
fn a_store_under_other_limits_is_ignored() {
    let fs = files(&[
        ("m.cinc", "R = len(range(50))"),
        ("main.cconf", "import \"m.cinc\"\nexport_if_last(R)"),
    ]);
    let store = ModuleStore::new();
    assert!(Compiler::new(&fs)
        .with_module_store(&store)
        .compile("main.cconf")
        .is_ok());
    assert_eq!(store.shared(), 1);
    // Under a tighter range limit the module must fail, stored or not.
    let tight = Limits {
        max_range: 10,
        ..Limits::default()
    };
    let e = Compiler::new(&fs)
        .with_limits(tight)
        .with_module_store(&store)
        .compile("main.cconf")
        .unwrap_err();
    assert!(matches!(e.kind, ErrorKind::Budget(_)), "{e}");
}
