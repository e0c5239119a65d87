//! Differential test: the incremental, parallel, cache-sharing compile
//! pipeline must be observationally identical to the legacy
//! compile-everything-serially pipeline.
//!
//! A seeded random walk applies ~50 edit steps — mutating shared `.cinc`
//! modules, schemas, validators, and entry files — to two services that
//! started from the same seed commit:
//!
//! * `fast`: default options (fingerprint skips, shared parse cache,
//!   parallel workers);
//! * `slow`: [`CompileOptions::legacy`] (serial, no cache, no skips).
//!
//! After every step the two must agree on acceptance/rejection, updated
//! configs, and byte-identical artifacts. The fast service must also never
//! recompile more than the ripple predicts, and every artifact that
//! actually changed must be in its recompiled set. At the end, a fresh
//! from-scratch service replays the final tree and must reproduce every
//! artifact byte-for-byte.
//!
//! A second walk over the same corpus isolates the evaluated-module store:
//! see `module_store_matches_unshared_compiles`.

use std::collections::BTreeMap;

use configerator::{CompileOptions, ConfigeratorService};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const STEPS: usize = 50;
const ENTRIES: usize = 18;
const MODULES: usize = 4;
const SCHEMAS: usize = 2;

fn module_path(m: usize) -> String {
    format!("shared/mod{m}.cinc")
}

fn schema_path(s: usize) -> String {
    format!("schemas/type{s}.schema")
}

fn validator_path(s: usize) -> String {
    format!("schemas/type{s}.cvalidator")
}

fn entry_path(e: usize) -> String {
    format!("app/entry{e:02}.cconf")
}

fn module_src(m: usize, version: u64) -> String {
    format!(
        "BASE{m} = {}\nSCALE{m} = {}\n",
        100 + version,
        1 + version % 7
    )
}

fn schema_src(s: usize, version: u64) -> String {
    format!(
        "struct Conf{s} {{ 1: string name 2: i64 weight = {} }}",
        10 + version
    )
}

fn validator_src(_s: usize, version: u64) -> String {
    // Always-true bound so edits never reject; rejection paths are
    // exercised separately in the service unit tests.
    format!(
        "def validate(cfg):\n    require(cfg.weight >= {}, \"w\")",
        version % 5
    )
}

fn entry_src(e: usize, version: u64) -> String {
    let m = e % MODULES;
    let s = e % SCHEMAS;
    format!(
        "import \"{}\"\nschema \"{}\"\nexport_if_last(Conf{s} {{ name: \"e{e}\", weight: BASE{m} * SCALE{m} + {} }})",
        module_path(m),
        schema_path(s),
        version
    )
}

type Changes = BTreeMap<String, Option<String>>;

/// One step of the seeded walk: edits a module, schema, validator or
/// entry to fresh content, or rewrites a module with its current content.
/// `versions` holds per-file counters so every edit is new.
fn random_edit(rng: &mut SmallRng, versions: &mut BTreeMap<String, u64>) -> Changes {
    let mut ch = Changes::new();
    let mut bump = |path: String| {
        let v = versions.entry(path).or_insert(0);
        *v += 1;
        *v
    };
    match rng.gen_range(0..5u32) {
        0 => {
            let m = rng.gen_range(0..MODULES);
            ch.insert(module_path(m), Some(module_src(m, bump(module_path(m)))));
        }
        1 => {
            let s = rng.gen_range(0..SCHEMAS);
            ch.insert(schema_path(s), Some(schema_src(s, bump(schema_path(s)))));
        }
        2 => {
            let s = rng.gen_range(0..SCHEMAS);
            ch.insert(
                validator_path(s),
                Some(validator_src(s, bump(validator_path(s)))),
            );
        }
        3 => {
            let e = rng.gen_range(0..ENTRIES);
            ch.insert(entry_path(e), Some(entry_src(e, bump(entry_path(e)))));
        }
        _ => {
            // A no-op rewrite: land a file with its current content.
            // Fingerprints make these free for `fast`; the output must
            // still match `slow`, which recompiles the full ripple.
            let m = rng.gen_range(0..MODULES);
            let v = versions.get(&module_path(m)).copied().unwrap_or(0);
            ch.insert(module_path(m), Some(module_src(m, v)));
        }
    }
    ch
}

/// A commit that must bounce in the compiler: a negative weight for the
/// validator, a truncated entry, an import of nothing, or a shared module
/// that raises — which fails every one of its dependents.
fn bad_edit(rng: &mut SmallRng) -> Changes {
    let e = rng.gen_range(0..ENTRIES);
    let (m, s) = (e % MODULES, e % SCHEMAS);
    let header = format!(
        "import \"{}\"\nschema \"{}\"\n",
        module_path(m),
        schema_path(s)
    );
    let (path, src) = match rng.gen_range(0..4u32) {
        0 => (
            entry_path(e),
            format!("{header}export_if_last(Conf{s} {{ name: \"e{e}\", weight: 0 - BASE{m} }})"),
        ),
        1 => (
            entry_path(e),
            format!("{header}export_if_last(Conf{s} {{ name: \"e{e}\", weight: "),
        ),
        2 => (
            entry_path(e),
            format!("import \"shared/missing.cinc\"\n{header}export_if_last(Conf{s} {{ name: \"e{e}\" }})"),
        ),
        _ => (
            module_path(m),
            format!("{}SCALE{m} = BASE{m} / 0\n", module_src(m, 0)),
        ),
    };
    [(path, Some(src))].into_iter().collect()
}

fn seed_changes() -> Changes {
    let mut ch = BTreeMap::new();
    for m in 0..MODULES {
        ch.insert(module_path(m), Some(module_src(m, 0)));
    }
    for s in 0..SCHEMAS {
        ch.insert(schema_path(s), Some(schema_src(s, 0)));
        ch.insert(validator_path(s), Some(validator_src(s, 0)));
    }
    for e in 0..ENTRIES {
        ch.insert(entry_path(e), Some(entry_src(e, 0)));
    }
    ch
}

fn assert_artifacts_identical(a: &ConfigeratorService, b: &ConfigeratorService, when: &str) {
    let names_a = a.config_names();
    let names_b = b.config_names();
    assert_eq!(names_a, names_b, "config sets diverged {when}");
    for name in &names_a {
        assert_eq!(
            a.artifact(name).unwrap().json,
            b.artifact(name).unwrap().json,
            "artifact {name} not byte-identical {when}"
        );
    }
}

#[test]
fn randomized_edits_incremental_matches_clean_rebuild() {
    let mut rng = SmallRng::seed_from_u64(51);
    let mut fast = ConfigeratorService::new();
    let mut slow = ConfigeratorService::with_options(CompileOptions::legacy());
    fast.commit_source("seed", "seed", seed_changes()).unwrap();
    slow.commit_source("seed", "seed", seed_changes()).unwrap();
    assert_artifacts_identical(&fast, &slow, "after seed");

    // Per-file version counters so every edit produces fresh content.
    let mut versions: BTreeMap<String, u64> = BTreeMap::new();

    for step in 0..STEPS {
        let ch = random_edit(&mut rng, &mut versions);

        let when = format!("at step {step}");
        let rf = fast.commit_source("fuzz", &when, ch.clone());
        let rs = slow.commit_source("fuzz", &when, ch);
        match (rf, rs) {
            (Ok(rf), Ok(rs)) => {
                assert_eq!(rf.updated_configs, rs.updated_configs, "updates {when}");
                assert_eq!(rf.ripple_recompiles, rs.ripple_recompiles, "ripple {when}");
                // The fast pipeline may skip, never over-compile: its
                // candidate set matches the legacy one exactly, and what
                // it compiled plus what it skipped covers it.
                assert_eq!(rf.stats.candidates, rs.stats.candidates, "{when}");
                assert_eq!(
                    rf.recompiled_entries.len() + rf.skipped_entries.len(),
                    rf.stats.candidates,
                    "{when}"
                );
                // Every artifact that changed was actually recompiled
                // (skipped entries reuse stored bytes, so they can never
                // appear in updated_configs).
                for name in &rf.updated_configs {
                    let entry = format!("{name}.cconf");
                    assert!(
                        rf.recompiled_entries.contains(&entry),
                        "{when}: changed artifact {name} was not recompiled"
                    );
                }
            }
            (Err(ef), Err(_es)) => {
                // Both reject — acceptable, state must stay in sync.
                let _ = ef;
            }
            (rf, rs) => panic!("{when}: divergent accept/reject: fast={rf:?} slow={rs:?}"),
        }
        assert_artifacts_identical(&fast, &slow, &when);
    }

    // From-scratch replay of the final tree reproduces every artifact.
    let mut fresh = ConfigeratorService::new();
    let mut final_tree: BTreeMap<String, Option<String>> = BTreeMap::new();
    for (path, _) in seed_changes() {
        final_tree.insert(path.clone(), fast.read_source(&path));
    }
    fresh.commit_source("replay", "replay", final_tree).unwrap();
    assert_artifacts_identical(&fast, &fresh, "after from-scratch replay");

    // The walk must have exercised the incremental machinery.
    let skips = fast
        .metrics()
        .counter(configerator::metrics::FINGERPRINT_SKIPS);
    assert!(skips > 0, "no fingerprint skips in {STEPS} steps");
    let cache = fast.parse_cache_stats();
    assert!(
        cache.hits > cache.misses,
        "parse cache barely hit: {cache:?}"
    );
}

/// The evaluated-module store against compiles that share nothing: two
/// services differing only in `parse_cache` (which carries the store)
/// walk the same seeded edits, with seeded-bad commits mixed in, serially
/// and on four workers. Every dry-run must return the same
/// `CompiledConfig`s field by field, every bounce the same failures with
/// the same messages, and every landed commit the same report.
#[test]
fn module_store_matches_unshared_compiles() {
    for workers in [1, 4] {
        // No fingerprint skips (every candidate compiles at every step)
        // and no verify gate (bad commits reach the compiler).
        let options = |parse_cache| CompileOptions {
            workers,
            incremental: false,
            parse_cache,
            verify: false,
        };
        let mut shared = ConfigeratorService::with_options(options(true));
        let mut unshared = ConfigeratorService::with_options(options(false));
        shared
            .commit_source("seed", "seed", seed_changes())
            .unwrap();
        unshared
            .commit_source("seed", "seed", seed_changes())
            .unwrap();
        assert_artifacts_identical(&shared, &unshared, "after seed");

        let mut rng = SmallRng::seed_from_u64(51 + workers as u64);
        let mut versions: BTreeMap<String, u64> = BTreeMap::new();
        let (mut landed, mut bounced, mut compiled) = (0, 0, 0);
        for step in 0..2 * STEPS {
            let when = format!("at step {step}, {workers} worker(s)");
            let ch = if step % 4 == 3 {
                bad_edit(&mut rng)
            } else {
                random_edit(&mut rng, &mut versions)
            };
            match (shared.check_changes(&ch), unshared.check_changes(&ch)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.len(), b.len(), "{when}");
                    for (a, b) in a.iter().zip(&b) {
                        assert_eq!(a.path, b.path, "{when}");
                        assert_eq!(a.json, b.json, "{when}: {}", a.path);
                        assert_eq!(a.deps, b.deps, "{when}: {}", a.path);
                        assert_eq!(a.validators_run, b.validators_run, "{when}: {}", a.path);
                        assert_eq!(a.probed_absent, b.probed_absent, "{when}: {}", a.path);
                        assert_eq!(a.type_name, b.type_name, "{when}: {}", a.path);
                    }
                    compiled += a.len();
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{when}");
                    assert_eq!(a.to_string(), b.to_string(), "{when}");
                }
                (a, b) => panic!("{when}: shared={a:?} unshared={b:?}"),
            }
            let ra = shared.commit_source("fuzz", &when, ch.clone());
            let rb = unshared.commit_source("fuzz", &when, ch);
            match (ra, rb) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.updated_configs, b.updated_configs, "{when}");
                    assert_eq!(a.ripple_recompiles, b.ripple_recompiles, "{when}");
                    assert_eq!(a.recompiled_entries, b.recompiled_entries, "{when}");
                    landed += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{when}");
                    bounced += 1;
                }
                (a, b) => panic!("{when}: shared={a:?} unshared={b:?}"),
            }
            assert_artifacts_identical(&shared, &unshared, &when);
        }
        assert_eq!(
            (landed, bounced),
            (3 * STEPS / 2, STEPS / 2),
            "{workers} worker(s)"
        );
        assert!(compiled > 4 * STEPS, "only {compiled} compiles compared");
    }
}
