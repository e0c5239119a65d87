//! The CDSL corpus of the commit workloads and its native model.
//!
//! The shape is `repro compile`'s: one comment-free "hot" library module
//! imported by a tenth of the entries, eight shared modules each imported
//! by a quarter, four schemas with validators. Entries are laid out
//! `team{tt}/svc{ss}/entry{nnnn}.cconf`, one per service directory, so no
//! directory is wide (directory width is what `GitTailer::drain` is
//! sensitive to, and `big_repo_automation` varies it separately).
//!
//! [`Corpus`] also tracks every version counter and computes each entry's
//! exported `weight` with plain integer arithmetic, never through `cdsl`:
//! that is the reference the compiled artifacts are checked against.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const MODULES: usize = 8;
pub const SCHEMAS: usize = 4;
pub const HOT_FANIN: usize = 10;
const HOT_FUNCS: usize = 250;
const MOD_FUNCS: usize = 25;
const HOT_CONSTS: usize = 24;
const MOD_CONSTS: usize = 16;
const HOT_SALT: u64 = 17;
pub const SVCS_PER_TEAM: usize = 50;

pub const HOT_PATH: &str = "shared/hot.cinc";

pub type Changes = BTreeMap<String, Option<String>>;

pub fn module_path(m: usize) -> String {
    format!("shared/mod{m}.cinc")
}

fn schema_path(s: usize) -> String {
    format!("schemas/conf{s}.schema")
}

fn validator_path(s: usize) -> String {
    format!("schemas/conf{s}.cvalidator")
}

/// Config name (and source path stem) of entry `e`.
pub fn entry_name(e: usize) -> String {
    format!(
        "team{:02}/svc{:02}/entry{e:04}",
        e / SVCS_PER_TEAM,
        e % SVCS_PER_TEAM
    )
}

pub fn entry_path(e: usize) -> String {
    format!("{}.cconf", entry_name(e))
}

/// The entry index encoded in a config name, if it is one of ours.
pub fn entry_index(name: &str) -> Option<usize> {
    let digits = name.rsplit_once("/entry")?.1;
    digits.parse().ok()
}

fn salt_of(m: usize) -> u64 {
    7 * m as u64
}

/// The helper function every module defines: `{prefix}_f{i}(x, scale)`
/// with its default `scale`, evaluated natively. `k` is `salt + i`.
fn helper(k: u64, x: i64) -> i64 {
    let k = k as i64;
    let scale = 1 + k % 7;
    let base = x * scale + k;
    let spread = base - x + k % 13;
    if spread > 50 + k % 50 {
        spread + base + 1
    } else {
        base + spread + k % 5
    }
}

fn func_block(prefix: &str, count: usize, salt: u64) -> String {
    let mut out = String::with_capacity(count * 160);
    for i in 0..count {
        let k = salt + i as u64;
        let _ = writeln!(out, "def {prefix}_f{i}(x, scale={}):", 1 + k % 7);
        let _ = writeln!(out, "    base = x * scale + {k}");
        let _ = writeln!(out, "    spread = base - x + {}", k % 13);
        let _ = writeln!(out, "    if spread > {}:", 50 + k % 50);
        let _ = writeln!(out, "        return spread + base + 1");
        let _ = writeln!(out, "    return base + spread + {}", k % 5);
    }
    out
}

fn hot_const(version: u64, i: usize) -> i64 {
    (1_000 + version * 100) as i64 + i as i64
}

fn mod_const(m: usize, version: u64, i: usize) -> i64 {
    (10 * (m as u64 + 1) + version) as i64 + i as i64
}

fn hot_src(version: u64) -> String {
    let mut out = func_block("hot", HOT_FUNCS, HOT_SALT);
    for i in 0..HOT_CONSTS {
        let _ = writeln!(out, "HOT_C{i} = {}", hot_const(version, i));
    }
    out
}

fn module_src(m: usize, version: u64) -> String {
    let mut out = func_block(&format!("m{m}"), MOD_FUNCS, salt_of(m));
    for i in 0..MOD_CONSTS {
        let _ = writeln!(out, "M{m}_C{i} = {}", mod_const(m, version, i));
    }
    out
}

/// What is wrong with a seeded-bad entry edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bad {
    /// Negative weight: the schema's validator must reject it.
    Validator,
    /// Truncated source.
    Syntax,
    /// Imports a module that does not exist.
    MissingImport,
}

/// The corpus state: sizes plus every version counter an edit bumps.
#[derive(Clone)]
pub struct Corpus {
    entries: usize,
    hot_version: u64,
    mod_version: [u64; MODULES],
    /// The per-entry literal a leaf edit changes.
    entry_salt: Vec<i64>,
}

impl Corpus {
    pub fn new(entries: usize) -> Corpus {
        Corpus {
            entries,
            hot_version: 0,
            mod_version: [0; MODULES],
            entry_salt: (0..entries as i64).collect(),
        }
    }

    pub fn entries(&self) -> usize {
        self.entries
    }

    fn is_hot(e: usize) -> bool {
        e.is_multiple_of(HOT_FANIN)
    }

    fn mods_of(e: usize) -> (usize, usize) {
        (e % MODULES, (e + 3) % MODULES)
    }

    fn entry_src_with(&self, e: usize, salt: i64, bad: Option<Bad>) -> String {
        let (a, b) = Self::mods_of(e);
        let s = e % SCHEMAS;
        let mut out = String::new();
        let _ = writeln!(out, "import \"{}\"", module_path(a));
        let _ = writeln!(out, "import \"{}\"", module_path(b));
        if Self::is_hot(e) {
            let _ = writeln!(out, "import \"{HOT_PATH}\"");
        }
        if bad == Some(Bad::MissingImport) {
            let _ = writeln!(out, "import \"shared/missing.cinc\"");
        }
        let _ = writeln!(out, "schema \"{}\"", schema_path(s));
        let weight = if Self::is_hot(e) {
            format!(
                "hot_f{}(M{a}_C1) + HOT_C{} + M{b}_C2",
                e % HOT_FUNCS,
                e % HOT_CONSTS
            )
        } else {
            format!("m{a}_f{}(M{a}_C1) + M{b}_C2", e % MOD_FUNCS)
        };
        if bad == Some(Bad::Syntax) {
            let _ = writeln!(
                out,
                "export_if_last(Conf{s} {{ name: \"entry{e}\", weight: "
            );
            return out;
        }
        let salt = if bad == Some(Bad::Validator) {
            -1_000_000_000
        } else {
            salt
        };
        let _ = writeln!(
            out,
            "export_if_last(Conf{s} {{ name: \"entry{e}\", weight: {weight} + ({salt}) }})"
        );
        out
    }

    /// The `weight` entry `e` must export at the current versions.
    pub fn weight(&self, e: usize) -> i64 {
        let (a, b) = Self::mods_of(e);
        let x = mod_const(a, self.mod_version[a], 1);
        let tail = mod_const(b, self.mod_version[b], 2) + self.entry_salt[e];
        if Self::is_hot(e) {
            helper(HOT_SALT + (e % HOT_FUNCS) as u64, x)
                + hot_const(self.hot_version, e % HOT_CONSTS)
                + tail
        } else {
            helper(salt_of(a) + (e % MOD_FUNCS) as u64, x) + tail
        }
    }

    /// The whole source tree at the current versions.
    pub fn tree(&self) -> Changes {
        let mut files = Changes::new();
        files.insert(HOT_PATH.to_string(), Some(hot_src(self.hot_version)));
        for m in 0..MODULES {
            files.insert(module_path(m), Some(module_src(m, self.mod_version[m])));
        }
        for s in 0..SCHEMAS {
            files.insert(
                schema_path(s),
                Some(format!(
                    "struct Conf{s} {{ 1: string name 2: i64 weight = 10 }}"
                )),
            );
            files.insert(
                validator_path(s),
                Some(
                    "def validate(cfg):\n    require(cfg.weight >= 0, \"weight must be nonnegative\")"
                        .to_string(),
                ),
            );
        }
        for e in 0..self.entries {
            files.insert(
                entry_path(e),
                Some(self.entry_src_with(e, self.entry_salt[e], None)),
            );
        }
        files
    }

    /// The change set of `edit`, `bump` versions ahead of the current one.
    /// Real edits use `bump = 1` and move the model through
    /// [`Corpus::landed`]; the traced run's dry-run plans use a large bump
    /// so their sources never coincide with anything that lands.
    pub fn edit(&self, edit: Edit, bump: u64) -> Changes {
        let (path, src) = match edit {
            Edit::Entry(e) => (
                entry_path(e),
                self.entry_src_with(e, self.entry_salt[e] + bump as i64, None),
            ),
            Edit::Module(m) => (module_path(m), module_src(m, self.mod_version[m] + bump)),
            Edit::Hot => (HOT_PATH.to_string(), hot_src(self.hot_version + bump)),
        };
        [(path, Some(src))].into_iter().collect()
    }

    /// The entries `edit` makes the compiler revisit.
    pub fn ripple(&self, edit: Edit) -> Vec<usize> {
        let all = 0..self.entries;
        match edit {
            Edit::Entry(e) => vec![e],
            Edit::Module(m) => all
                .filter(|&e| {
                    let (a, b) = Self::mods_of(e);
                    a == m || b == m
                })
                .collect(),
            Edit::Hot => all.filter(|&e| Self::is_hot(e)).collect(),
        }
    }

    /// An edit of entry `e` that must bounce.
    pub fn bad_edit(&self, e: usize, bad: Bad) -> Changes {
        let src = self.entry_src_with(e, self.entry_salt[e] + 1, Some(bad));
        [(entry_path(e), Some(src))].into_iter().collect()
    }

    /// Advances the model past a landed edit.
    pub fn landed(&mut self, edit: Edit) {
        match edit {
            Edit::Entry(e) => self.entry_salt[e] += 1,
            Edit::Module(m) => self.mod_version[m] += 1,
            Edit::Hot => self.hot_version += 1,
        }
    }
}

/// Which part of the corpus an edit touched.
#[derive(Clone, Copy, Debug)]
pub enum Edit {
    Entry(usize),
    Module(usize),
    Hot,
}

/// The integer after `"weight": ` in a compiled artifact.
pub fn artifact_weight(json: &[u8]) -> Option<i64> {
    let text = std::str::from_utf8(json).ok()?;
    let rest = text.split_once("\"weight\":")?.1.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
