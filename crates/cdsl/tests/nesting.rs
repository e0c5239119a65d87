//! Sizes the two nesting constants — `parser::MAX_NESTING` and the
//! interpreter's `MAX_FRAMES` — against the native stack.
//!
//! Neither is visible from here, so each test finds a boundary by probing:
//! it grows one shape of program until it is rejected (with the error kind
//! the constant promises, never a crash), then takes the deepest *accepted*
//! program of that shape through everything that recurses over it — parser,
//! verifier, compiler, `Drop` — on a 1 MiB stack. Spawned threads, test
//! threads and `plan()`'s compile workers get 2 MiB, and `cargo test` runs
//! this in the debug build, whose frames are several times the release
//! build's: a constant that passes here has at least that much margin where
//! it matters.

use std::collections::BTreeMap;

use cdsl::{Compiler, ErrorKind, ModuleStore, ParseCache, Verifier};

fn on_one_mib_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("the probe thread must not panic");
}

type Files = BTreeMap<String, String>;

fn one_file(src: String) -> Files {
    BTreeMap::from([("main.cconf".to_string(), src)])
}

/// Verifies and compiles `main.cconf` and drops what that built, with and
/// without the shared caches (the module store evaluates an import in a
/// sub-interpreter, which is the deeper native path).
fn run(files: &Files) -> Result<String, cdsl::CdslError> {
    let entries = ["main.cconf".to_string()];
    let _ = Verifier::new(files).verify(&entries).to_string();
    let plain = Compiler::new(files).compile("main.cconf").map(|c| c.json);
    let (cache, store) = (ParseCache::new(), ModuleStore::new());
    let shared = Compiler::new(files)
        .with_cache(&cache)
        .with_module_store(&store)
        .compile("main.cconf")
        .map(|c| c.json);
    assert_eq!(
        plain, shared,
        "the module store must not change the outcome"
    );
    plain
}

/// Grows `shape(k)` from `k = 1` until it is rejected, which must be with
/// an `expected` error; returns the deepest accepted `k`. Every accepted
/// depth, the deepest included, has then run on this thread's stack.
fn deepest_accepted(
    what: &str,
    shape: impl Fn(usize) -> Files,
    expected: fn(&ErrorKind) -> bool,
) -> usize {
    for k in 1..100_000 {
        if let Err(e) = run(&shape(k)) {
            assert!(expected(&e.kind), "{what} at depth {k}: {e}");
            return k - 1;
        }
    }
    panic!("{what}: nothing bounds this shape");
}

fn too_deep_to_parse(kind: &ErrorKind) -> bool {
    matches!(kind, ErrorKind::Parse(m) if m.contains("nested"))
}

fn over_budget(kind: &ErrorKind) -> bool {
    matches!(kind, ErrorKind::Budget(_))
}

/// `open` × k, `inner`, `close` × k as the exported expression.
fn wrapped(open: &str, inner: &str, close: &str, k: usize) -> Files {
    one_file(format!(
        "export_if_last({}{inner}{})\n",
        open.repeat(k),
        close.repeat(k)
    ))
}

/// `k` statements `header`, each in the block of the one before, around an
/// export.
fn blocks(header: &str, k: usize) -> Files {
    let mut src = String::new();
    for depth in 0..k {
        src += &format!("{}{header}\n", "    ".repeat(depth));
    }
    one_file(src + &format!("{}export_if_last(1)\n", "    ".repeat(k)))
}

type Shape = Box<dyn Fn(usize) -> Files>;

#[test]
fn syntax_nesting_is_bounded_and_the_deepest_accepted_fits_a_small_stack() {
    on_one_mib_stack(|| {
        let shapes: Vec<(&str, Shape)> = vec![
            ("parentheses", Box::new(|k| wrapped("(", "1", ")", k))),
            ("list displays", Box::new(|k| wrapped("[", "1", "]", k))),
            (
                "dict displays",
                Box::new(|k| wrapped("{\"k\": ", "1", "}", k)),
            ),
            ("calls", Box::new(|k| wrapped("str(", "1", ")", k))),
            ("unary minus", Box::new(|k| wrapped("-", "1", "", k))),
            ("not", Box::new(|k| wrapped("not ", "true", "", k))),
            // Chains nest the tree without nesting the parser.
            (
                "a left-deep operator chain",
                Box::new(|k| wrapped("", &format!("0{}", " + 1".repeat(k)), "", 1)),
            ),
            (
                "a right-deep conditional chain",
                Box::new(|k| wrapped("", &format!("{}0", "1 if false else ".repeat(k)), "", 1)),
            ),
            (
                "a postfix chain",
                Box::new(|k| {
                    let calls = "()".repeat(k);
                    one_file(format!(
                        "def f():\n    return f\nexport_if_last(str(f{calls}))\n"
                    ))
                }),
            ),
            ("nested if blocks", Box::new(|k| blocks("if true:", k))),
            (
                "an elif chain",
                Box::new(|k| {
                    let arms = "elif false:\n    x = 1\n".repeat(k);
                    one_file(format!(
                        "if false:\n    x = 0\n{arms}else:\n    export_if_last(1)\n"
                    ))
                }),
            ),
            (
                "nested for blocks",
                Box::new(|k| blocks("for i in [1]:", k)),
            ),
        ];
        for (what, shape) in shapes {
            let k = deepest_accepted(what, &shape, too_deep_to_parse);
            // Hand-written configs nest a handful of levels; the bound must
            // leave them alone, and exist.
            assert!((25..=40).contains(&k), "{what}: deepest accepted is {k}");
        }
    });
}

/// `f(levels)` recursing through an expression nested `parens` deep.
fn recursion(parens: usize, levels: usize) -> Files {
    one_file(format!(
        "def f(k):\n    if k == 0:\n        return 0\n    return {}f(k - 1){}\nexport_if_last(f({levels}))\n",
        "(0 + ".repeat(parens),
        ")".repeat(parens)
    ))
}

/// `main.cconf` at the head of a chain of `k` imports.
fn import_chain(k: usize) -> Files {
    let mut files = one_file("import \"m1.cinc\"\nexport_if_last(X)\n".to_string());
    for i in 1..=k {
        let src = if i == k {
            "X = 1\n".to_string()
        } else {
            format!("import \"m{}.cinc\"\n", i + 1)
        };
        files.insert(format!("m{i}.cinc"), src);
    }
    files
}

#[test]
fn evaluation_nesting_is_bounded_and_the_deepest_accepted_fits_a_small_stack() {
    on_one_mib_stack(|| {
        // Plain recursion still stops at `Limits::max_depth`: the frame
        // budget is not what a well-behaved config meets first. It is also
        // the costliest shape there is, two frames and a call a level.
        let levels = deepest_accepted("plain recursion", |k| recursion(0, k), over_budget);
        assert_eq!(levels + 1, 64, "f(k) is k + 1 calls deep; max_depth is 64");
        let e = run(&recursion(0, levels + 1)).unwrap_err();
        assert!(e.message().contains("call depth"), "{e}");

        // With operators nested in each level, the frames run out first.
        for parens in [8, 30] {
            let what = format!("recursion through {parens} nested operators");
            let levels = deepest_accepted(&what, |k| recursion(parens, k), over_budget);
            assert!((1..63).contains(&levels), "{what}: {levels} levels");
            let e = run(&recursion(parens, levels + 1)).unwrap_err();
            assert!(e.message().contains("frames"), "{what}: {e}");
        }

        let modules = deepest_accepted("an import chain", import_chain, over_budget);
        assert!((30..=140).contains(&modules), "{modules} modules");
    });
}

#[test]
fn a_shared_module_is_linked_only_where_executing_it_would_have_fit() {
    // `deep.cinc` evaluates most of the way to the frame budget. Imported
    // by an entry it fits; imported at the end of a chain it does not —
    // and whether another compile has already evaluated and shared it must
    // not change that, or a plan's outcome would depend on which worker
    // compiled what first.
    let mut files = recursion(0, 40);
    let deep = files.remove("main.cconf").unwrap();
    files.insert("deep.cinc".into(), deep.replace("export_if_last(", "X = ("));
    files.insert(
        "near.cconf".into(),
        "import \"deep.cinc\"\nexport_if_last(X)\n".into(),
    );
    files.insert(
        "far.cconf".into(),
        "import \"c1.cinc\"\nexport_if_last(X)\n".into(),
    );
    for i in 1..=30 {
        let next = if i == 30 {
            "deep.cinc".to_string()
        } else {
            format!("c{}.cinc", i + 1)
        };
        files.insert(format!("c{i}.cinc"), format!("import \"{next}\"\n"));
    }
    let unshared = |entry: &str| Compiler::new(&files).compile(entry).map(|c| c.json);
    assert_eq!(unshared("near.cconf").unwrap().trim(), "0");
    let e = unshared("far.cconf").unwrap_err();
    assert!(e.message().contains("frames"), "{e}");
    for order in [["near.cconf", "far.cconf"], ["far.cconf", "near.cconf"]] {
        let store = ModuleStore::new();
        for entry in order {
            let shared = Compiler::new(&files)
                .with_module_store(&store)
                .compile(entry)
                .map(|c| c.json);
            assert_eq!(shared, unshared(entry), "{entry} of {order:?}");
        }
    }
}
