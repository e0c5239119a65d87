//! Static verification of CDSL sources — without executing them.
//!
//! The compiler (and the validators it runs) only reports problems on the
//! paths it actually executes. This module analyzes a commit's sources
//! *statically*, in the spirit of the config-verification literature
//! (Rehearsal's determinacy/totality checking, Tortoise's repair
//! suggestions):
//!
//! 1. **Schema type checking** of struct literals against the Thrift-style
//!    [`SchemaSet`] — unknown fields, missing required fields, element
//!    types of collections, enum membership — on *every* literal in the
//!    import closure, including ones the interpreter would never reach.
//! 2. **Validator totality/determinacy**: a `.cvalidator` whose
//!    `validate()` can fall through (or `return`) without evaluating a
//!    single `require`/`fail` silently passes bad configs; names that are
//!    bound by no reachable scope, or by more than one import
//!    (import-order-sensitive), are flagged.
//! 3. **Reachability**: `export_if_last` arms under constant-false
//!    conditions are dead; imports contributing no used binding are noise.
//! 4. **Bounded symbolic evaluation** over a small abstract-value lattice
//!    ([`Abs`]): constant-foldable violations such as out-of-range ports
//!    or empty required lists are caught before any canary sees them.
//!
//! The verifier is deliberately *under*-approximate: it only folds an
//! operation when the interpreter provably produces the same value, and it
//! only reports an [`Severity::Error`] when execution (of the flagged
//! code) would provably misbehave. A commit that compiles and validates
//! cleanly is never rejected.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::ast::{walk_stmts, BinOp, Defs, Expr, ExprKind, FuncDef, Module, Stmt, StmtKind};
use crate::cache::{content_key, ContentKey, ParseCache};
use crate::compile::validator_path;
use crate::interp::{Loader, BUILTINS};
use crate::parser;
use crate::schema::{parse_schema, SchemaSet, Type, TypeDef, UNKNOWN_TYPE};
use crate::value::Value;

/// How bad a finding is. Only errors reject a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong; never rejects.
    Warning,
    /// Provably misbehaves if the flagged code runs; rejects the commit.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Check families (stable slugs used in reports and metrics).
pub mod check {
    /// Struct-literal / export payload schema type checking.
    pub const SCHEMA_TYPE: &str = "schema-type";
    /// Validator totality (every path reaches a verdict).
    pub const TOTALITY: &str = "validator-totality";
    /// Unbound or import-order-sensitive names.
    pub const DETERMINACY: &str = "determinacy";
    /// Dead `export_if_last` arms, unused imports, missing sources.
    pub const REACHABILITY: &str = "reachability";
    /// Constant-folded value violations (ports, required lists).
    pub const CONST_FOLD: &str = "const-fold";
}

/// One verifier finding, anchored to a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Finding {
    /// Source path the finding is in.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Check family slug (see [`check`]).
    pub check: &'static str,
    /// Severity; only [`Severity::Error`] rejects.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: [{}] {}",
            self.severity, self.path, self.line, self.check, self.message
        )
    }
}

/// The structured result of verifying a commit: sorted, deduplicated
/// findings plus Tortoise-style repair hints. Rendering is
/// byte-deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All findings, sorted by (path, line, check, severity, message).
    pub findings: Vec<Finding>,
    /// Repair hints ("minimal fix: …"), sorted and deduplicated.
    pub hints: Vec<String>,
}

impl VerifyReport {
    /// Builds a report from an unordered finding set.
    pub fn from_findings(findings: BTreeSet<Finding>, hints: BTreeSet<String>) -> VerifyReport {
        VerifyReport {
            findings: findings.into_iter().collect(),
            hints: hints.into_iter().collect(),
        }
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// True if any finding rejects the commit.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let warnings = self.findings.len() - self.error_count();
        writeln!(
            f,
            "verify: {} error(s), {} warning(s)",
            self.error_count(),
            warnings
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        for hint in &self.hints {
            writeln!(f, "  hint: {hint}")?;
        }
        Ok(())
    }
}

/// A Tortoise-style minimal-fix suggestion for one finding, when the check
/// family admits an obvious one.
pub fn repair_hint(f: &Finding) -> Option<String> {
    let at = format!("{}:{}", f.path, f.line);
    if f.check == check::SCHEMA_TYPE && f.message.contains("has no field") {
        Some(format!(
            "{at}: minimal fix: remove or rename the unknown field"
        ))
    } else if f.check == check::SCHEMA_TYPE && f.message.contains("missing required field") {
        Some(format!("{at}: minimal fix: add the missing field"))
    } else if f.check == check::SCHEMA_TYPE && f.message.contains("has no variant") {
        Some(format!(
            "{at}: minimal fix: use one of the enum's declared variants"
        ))
    } else if f.check == check::CONST_FOLD && f.message.contains("port") {
        Some(format!("{at}: minimal fix: choose a port in 1..=65535"))
    } else if f.check == check::CONST_FOLD && f.message.contains("required list") {
        Some(format!(
            "{at}: minimal fix: populate the list or make the field optional"
        ))
    } else if f.check == check::TOTALITY {
        Some(format!(
            "{at}: minimal fix: evaluate a require(...)/fail(...) on every path of validate()"
        ))
    } else if f.check == check::DETERMINACY && f.message.contains("not defined") {
        let name = f
            .message
            .split('\'')
            .nth(1)
            .unwrap_or("the name")
            .to_string();
        Some(format!(
            "{at}: minimal fix: define or import '{name}' (or restore the removed binding)"
        ))
    } else if f.check == check::REACHABILITY && f.message.contains("unreachable") {
        Some(format!(
            "{at}: minimal fix: remove the dead arm or make its condition non-constant"
        ))
    } else {
        None
    }
}

/// Abstract value lattice for bounded symbolic evaluation. `Known` means
/// the interpreter provably computes exactly that value; anything
/// uncertain collapses to `Unknown` (never to a wrong `Known`).
#[derive(Debug, Clone, PartialEq)]
pub enum Abs {
    /// Provably this exact value.
    Known(Value),
    /// A schema struct literal whose field values are themselves abstract.
    Struct {
        /// Schema type name.
        name: String,
        /// Provided fields in written order.
        fields: Vec<(String, Abs)>,
    },
    /// Top: no static knowledge.
    Unknown,
}

impl Abs {
    fn join(self, other: Abs) -> Abs {
        if self == other {
            self
        } else {
            Abs::Unknown
        }
    }
}

/// A struct literal found anywhere in a module, with constant-foldable
/// field values pre-evaluated (context-free: no environment).
#[derive(Debug, Clone)]
struct StructLit {
    name: String,
    line: u32,
    fields: Vec<(String, Option<Value>)>,
}

/// Context-free facts about one module, extracted once per content key.
#[derive(Debug)]
struct ModuleFacts {
    module: Arc<Module>,
    /// Names bound at module top level (assignments, defs, loop vars).
    bindings: BTreeSet<String>,
    /// `import` statements: (path, line).
    imports: Vec<(String, u32)>,
    /// `schema` statements: (path, line).
    schemas: Vec<(String, u32)>,
    /// Names referenced but not bound by the module's own scope
    /// (deduplicated by name; first referencing line kept).
    free_refs: Vec<(String, u32)>,
    /// Every struct literal in the module (all branches, all functions).
    struct_lits: Vec<StructLit>,
}

/// Content-addressed cache of [`ModuleFacts`], shareable across plans so
/// a hot shared module is analyzed once, not once per commit.
#[derive(Debug, Default)]
pub struct FactsCache {
    inner: Mutex<HashMap<ContentKey, Arc<ModuleFacts>>>,
}

impl FactsCache {
    /// An empty cache.
    pub fn new() -> FactsCache {
        FactsCache::default()
    }

    fn get_or_build(
        &self,
        src: &str,
        path: &str,
        parse_cache: Option<&ParseCache>,
    ) -> Option<Arc<ModuleFacts>> {
        let key = content_key(src);
        if let Some(f) = self.inner.lock().unwrap().get(&key) {
            return Some(f.clone());
        }
        let module = match parse_cache {
            Some(c) => c.module(src, path).ok()?,
            None => Arc::new(parser::parse(src, path).ok()?),
        };
        let facts = Arc::new(extract_facts(module));
        self.inner.lock().unwrap().insert(key, facts.clone());
        Some(facts)
    }
}

fn extract_facts(module: Arc<Module>) -> ModuleFacts {
    let mut bindings = BTreeSet::new();
    collect_bindings(&module.stmts, &mut bindings);
    let mut imports = Vec::new();
    let mut schemas = Vec::new();
    for stmt in &module.stmts {
        match &stmt.kind {
            StmtKind::Import(p) => imports.push((p.clone(), stmt.line)),
            StmtKind::Schema(p) => schemas.push((p.clone(), stmt.line)),
            _ => {}
        }
    }
    let mut free_refs: Vec<(String, u32)> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut collect_free = |stmts, defs, bound: &dyn Fn(&str) -> bool| {
        walk_stmts(stmts, defs, &mut |e| match &e.kind {
            ExprKind::Name(n) if !bound(n) && seen.insert(n.clone()) => {
                free_refs.push((n.clone(), e.line));
            }
            _ => {}
        });
    };
    // Top-level code, and the parameter defaults of its `def`s, resolve in
    // module scope; each body resolves its own parameters and assignments
    // first.
    collect_free(&module.stmts, Defs::Defaults, &|n| bindings.contains(n));
    for stmt in &module.stmts {
        if let StmtKind::Def(def) = &stmt.kind {
            let mut locals: BTreeSet<String> = def.params.iter().map(|p| p.name.clone()).collect();
            collect_bindings(&def.body, &mut locals);
            collect_free(&def.body, Defs::Skip, &|n| {
                locals.contains(n) || bindings.contains(n)
            });
        }
    }
    let mut struct_lits = Vec::new();
    walk_stmts(&module.stmts, Defs::Bodies, &mut |e| {
        if let ExprKind::Struct { name, fields } = &e.kind {
            struct_lits.push(StructLit {
                name: name.clone(),
                line: e.line,
                fields: fields
                    .iter()
                    .map(|(f, v)| (f.clone(), const_eval(v)))
                    .collect(),
            });
        }
    });
    ModuleFacts {
        module,
        bindings,
        imports,
        schemas,
        free_refs,
        struct_lits,
    }
}

fn collect_bindings(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Assign { name, .. } => {
                out.insert(name.clone());
            }
            StmtKind::Def(def) => {
                out.insert(def.name.clone());
            }
            StmtKind::If {
                then, otherwise, ..
            } => {
                collect_bindings(then, out);
                collect_bindings(otherwise, out);
            }
            StmtKind::For { var, body, .. } => {
                out.insert(var.clone());
                collect_bindings(body, out);
            }
            _ => {}
        }
    }
}

/// The value of an expression with no environment: what the interpreter
/// would compute for it wherever it stood, or `None` if that depends on
/// anything but the expression (names, calls) or is an error.
pub fn const_eval(e: &Expr) -> Option<Value> {
    let mut walker = EntryWalker {
        schemas: None,
        path: "",
        findings: &mut BTreeSet::new(),
    };
    match walker.eval(e, &BTreeMap::new()) {
        Abs::Known(v) => Some(v),
        _ => None,
    }
}

/// Whether `e` is a call of one of `names`, written as a bare name.
fn calls(e: &Expr, names: &[&str]) -> bool {
    matches!(&e.kind, ExprKind::Call { callee, .. }
        if matches!(&callee.kind, ExprKind::Name(n) if names.contains(&n.as_str())))
}

/// Totality flow summary of a statement list.
struct Flow {
    /// All fall-through paths evaluated a verdict.
    covered: bool,
    /// Some path falls through the end of the list.
    falls: bool,
    /// Some path `return`s before evaluating any verdict.
    bad_return: bool,
}

fn expr_has_verdict(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| found |= calls(sub, &["require", "fail"]));
    found
}

fn verdict_flow(stmts: &[Stmt], covered_in: bool) -> Flow {
    let mut covered = covered_in;
    let mut bad = false;
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Expr(e) | StmtKind::Assign { value: e, .. } if expr_has_verdict(e) => {
                covered = true;
            }
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    if expr_has_verdict(e) {
                        covered = true;
                    }
                }
                return Flow {
                    covered,
                    falls: false,
                    bad_return: bad || !covered,
                };
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                if expr_has_verdict(cond) {
                    covered = true;
                }
                let t = verdict_flow(then, covered);
                let e = verdict_flow(otherwise, covered);
                bad |= t.bad_return || e.bad_return;
                covered = match (t.falls, e.falls) {
                    (true, true) => t.covered && e.covered,
                    (true, false) => t.covered,
                    (false, true) => e.covered,
                    (false, false) => {
                        return Flow {
                            covered: true,
                            falls: false,
                            bad_return: bad,
                        }
                    }
                };
            }
            StmtKind::For { iter, body, .. } => {
                if expr_has_verdict(iter) {
                    covered = true;
                }
                // The loop may run zero times: verdicts inside never count
                // toward coverage, but a verdict-less return inside is bad.
                let b = verdict_flow(body, covered);
                bad |= b.bad_return;
            }
            _ => {}
        }
    }
    Flow {
        covered,
        falls: true,
        bad_return: bad,
    }
}

/// True if `validate()` provably evaluates a `require`/`fail` on every
/// path that can complete (fall through or return).
fn validator_is_total(def: &FuncDef) -> bool {
    let flow = verdict_flow(&def.body, false);
    !flow.bad_return && (!flow.falls || flow.covered)
}

/// The static verifier. Analyzes entries (and their import closures)
/// through a [`Loader`] — typically the same overlay view the compiler
/// uses — and produces a [`VerifyReport`].
pub struct Verifier<'l> {
    loader: &'l dyn Loader,
    parse_cache: Option<&'l ParseCache>,
    shared_facts: Option<&'l FactsCache>,
    local_facts: FactsCache,
    /// Per-session memo: module path → context-dependent findings.
    module_findings: Mutex<HashMap<String, Arc<Vec<Finding>>>>,
    /// Per-session memo: validator path → findings.
    validator_findings: Mutex<HashMap<String, Arc<Vec<Finding>>>>,
    /// Per-session path → facts memo. The content-addressed
    /// [`FactsCache`] already dedups *analysis* across plans, but every
    /// lookup through it pays a source load + content hash; within one
    /// plan a path's source cannot change, so the first resolution is
    /// cached by name (including misses — unparseable or absent files).
    facts_by_path: Mutex<HashMap<String, Option<Arc<ModuleFacts>>>>,
    /// Per-session memo of assembled schema sets, keyed by the sorted
    /// schema-path list of an entry's import closure. Entries sharing a
    /// schema (the common fan-in shape) load and assemble it once.
    #[allow(clippy::type_complexity)]
    schema_sets: Mutex<HashMap<String, Arc<(SchemaSet, BTreeSet<String>)>>>,
}

impl<'l> Verifier<'l> {
    /// A verifier over `loader` with no shared caches.
    pub fn new(loader: &'l dyn Loader) -> Verifier<'l> {
        Verifier {
            loader,
            parse_cache: None,
            shared_facts: None,
            local_facts: FactsCache::new(),
            module_findings: Mutex::new(HashMap::new()),
            validator_findings: Mutex::new(HashMap::new()),
            facts_by_path: Mutex::new(HashMap::new()),
            schema_sets: Mutex::new(HashMap::new()),
        }
    }

    /// Shares parsed ASTs with the compiler's [`ParseCache`].
    pub fn with_parse_cache(mut self, cache: &'l ParseCache) -> Verifier<'l> {
        self.parse_cache = Some(cache);
        self
    }

    /// Shares extracted module facts across verifier instances (plans).
    pub fn with_facts_cache(mut self, facts: &'l FactsCache) -> Verifier<'l> {
        self.shared_facts = Some(facts);
        self
    }

    fn facts_for(&self, path: &str) -> Option<Arc<ModuleFacts>> {
        if let Some(memo) = self.facts_by_path.lock().unwrap().get(path) {
            return memo.clone();
        }
        let facts = self.loader.load(path).and_then(|src| {
            self.shared_facts.unwrap_or(&self.local_facts).get_or_build(
                &src,
                path,
                self.parse_cache,
            )
        });
        self.facts_by_path
            .lock()
            .unwrap()
            .insert(path.to_string(), facts.clone());
        facts
    }

    /// Verifies a set of entry configs, returning the merged report.
    pub fn verify(&self, entries: &[String]) -> VerifyReport {
        let mut findings: BTreeSet<Finding> = BTreeSet::new();
        for entry in entries {
            self.verify_entry(entry, &mut findings);
        }
        let hints = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .filter_map(repair_hint)
            .collect();
        VerifyReport::from_findings(findings, hints)
    }

    fn verify_entry(&self, entry: &str, findings: &mut BTreeSet<Finding>) {
        // Walk the import closure breadth-first. Unparseable or missing
        // modules are skipped silently: the compiler reports those itself.
        let Some(entry_facts) = self.facts_for(entry) else {
            return;
        };
        let mut closure: BTreeMap<String, Arc<ModuleFacts>> = BTreeMap::new();
        closure.insert(entry.to_string(), entry_facts.clone());
        let mut queue: Vec<String> = entry_facts.imports.iter().map(|(p, _)| p.clone()).collect();
        while let Some(path) = queue.pop() {
            if closure.contains_key(&path) {
                continue;
            }
            if let Some(f) = self.facts_for(&path) {
                queue.extend(f.imports.iter().map(|(p, _)| p.clone()));
                closure.insert(path, f);
            }
        }

        // Gather the schema set visible anywhere in the closure (schema
        // statements register globally in the interpreter). Assembly is
        // memoized on the sorted path list: fan-in corpora share a
        // handful of schemas across hundreds of entries.
        let mut schema_paths: BTreeSet<String> = BTreeSet::new();
        for facts in closure.values() {
            for (spath, _) in &facts.schemas {
                schema_paths.insert(spath.clone());
            }
        }
        let set_key: String = schema_paths
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("\n");
        let memo = self.schema_sets.lock().unwrap().get(&set_key).cloned();
        let assembled = match memo {
            Some(a) => a,
            None => {
                let mut schemas = SchemaSet::new();
                let mut type_names: BTreeSet<String> = BTreeSet::new();
                for spath in &schema_paths {
                    let Some(src) = self.loader.load(spath) else {
                        continue;
                    };
                    let defs = match self.parse_cache {
                        Some(c) => c.schema(&src, spath).ok(),
                        None => parse_schema(&src, spath).ok().map(Arc::new),
                    };
                    if let Some(defs) = defs {
                        type_names.extend(defs.iter().map(|d| d.name().to_string()));
                        let _ = schemas.load_defs(&defs[..], spath);
                    }
                }
                let a = Arc::new((schemas, type_names));
                self.schema_sets.lock().unwrap().insert(set_key, a.clone());
                a
            }
        };
        let (schemas, type_names) = (&assembled.0, &assembled.1);

        // Per-module context checks (memoized per path for the session).
        for (path, facts) in &closure {
            let memo = self.module_findings.lock().unwrap().get(path).cloned();
            let module_findings = match memo {
                Some(f) => f,
                None => {
                    let f = Arc::new(self.check_module(path, facts, &closure, schemas, type_names));
                    self.module_findings
                        .lock()
                        .unwrap()
                        .insert(path.clone(), f.clone());
                    f
                }
            };
            findings.extend(module_findings.iter().cloned());
        }

        // Entry-level symbolic walk: exports, dead arms, env-aware lits.
        let mut walker = EntryWalker {
            schemas: Some(schemas),
            path: entry,
            findings,
        };
        let mut env: BTreeMap<String, Abs> = BTreeMap::new();
        walker.walk_stmts(&entry_facts.module.stmts, &mut env);

        // Validator checks for every schema in the closure.
        for spath in &schema_paths {
            let vpath = validator_path(spath);
            let memo = self.validator_findings.lock().unwrap().get(&vpath).cloned();
            let vfindings = match memo {
                Some(f) => f,
                None => {
                    let f = Arc::new(self.check_validator(&vpath, type_names));
                    self.validator_findings
                        .lock()
                        .unwrap()
                        .insert(vpath.clone(), f.clone());
                    f
                }
            };
            findings.extend(vfindings.iter().cloned());
        }
    }

    /// Context-dependent checks for one module: unbound names,
    /// import-order sensitivity, unused imports, struct literals.
    fn check_module(
        &self,
        path: &str,
        facts: &ModuleFacts,
        closure: &BTreeMap<String, Arc<ModuleFacts>>,
        schemas: &SchemaSet,
        type_names: &BTreeSet<String>,
    ) -> Vec<Finding> {
        let mut out = Vec::new();

        // Transitive import closure of this module, as shared facts. A
        // name is visible if bound here, by any transitively imported
        // module, by a schema type name (enum attribute base), or by a
        // builtin. Free refs are deduplicated and few, so membership is
        // probed per reference against the per-module binding sets rather
        // than materializing one merged set — the merged set made this the
        // hottest allocation in the warm verify pass (a wide shared module
        // re-hashed hundreds of binding names for every rippled entry).
        let mut trans: Vec<&Arc<ModuleFacts>> = Vec::new();
        let mut stack: Vec<&str> = facts.imports.iter().map(|(p, _)| p.as_str()).collect();
        if facts.free_refs.is_empty() {
            // Nothing to resolve: a long chain of modules that only import
            // would otherwise cost its length squared.
            stack.clear();
        }
        let mut visited: HashSet<&str> = HashSet::new();
        while let Some(ipath) = stack.pop() {
            if !visited.insert(ipath) {
                continue;
            }
            if let Some(ifacts) = closure.get(ipath) {
                trans.push(ifacts);
                stack.extend(ifacts.imports.iter().map(|(p, _)| p.as_str()));
            }
        }

        let mut used_imports: HashSet<&str> = HashSet::new();
        for (name, line) in &facts.free_refs {
            // Direct imports binding this name: used-import tracking plus
            // the import-order determinacy warning on multiple providers.
            let mut providers = 0usize;
            for (ipath, _) in &facts.imports {
                if closure
                    .get(ipath)
                    .is_some_and(|f| f.bindings.contains(name))
                {
                    providers += 1;
                    used_imports.insert(ipath.as_str());
                }
            }
            if providers >= 2 {
                out.push(Finding {
                    path: path.to_string(),
                    line: *line,
                    check: check::DETERMINACY,
                    severity: Severity::Warning,
                    message: format!(
                        "name '{name}' is bound by {providers} imports; its value depends on import order"
                    ),
                });
            }
            let visible = facts.bindings.contains(name)
                || trans.iter().any(|f| f.bindings.contains(name))
                || type_names.contains(name)
                || BUILTINS.contains(&name.as_str());
            if !visible {
                out.push(Finding {
                    path: path.to_string(),
                    line: *line,
                    check: check::DETERMINACY,
                    severity: Severity::Error,
                    message: format!("name '{name}' is not defined in any reachable scope"),
                });
            }
        }

        for (ipath, iline) in &facts.imports {
            if used_imports.contains(ipath.as_str()) {
                continue;
            }
            // An import can still matter for side effects: schema decls or
            // further imports of its own.
            let side_effects = closure
                .get(ipath)
                .map(|f| !f.schemas.is_empty() || !f.imports.is_empty())
                .unwrap_or(true);
            if !side_effects {
                out.push(Finding {
                    path: path.to_string(),
                    line: *iline,
                    check: check::REACHABILITY,
                    severity: Severity::Warning,
                    message: format!("import \"{ipath}\" contributes no used binding"),
                });
            }
        }

        // Missing import sources are definite compile failures for every
        // dependent — the classic dependency break.
        for (ipath, iline) in &facts.imports {
            if !closure.contains_key(ipath.as_str()) && self.loader.load(ipath).is_none() {
                out.push(Finding {
                    path: path.to_string(),
                    line: *iline,
                    check: check::REACHABILITY,
                    severity: Severity::Error,
                    message: format!("import \"{ipath}\": source not found"),
                });
            }
        }

        for lit in &facts.struct_lits {
            let fields: Vec<(String, Abs)> = lit
                .fields
                .iter()
                .map(|(n, v)| (n.clone(), v.clone().map(Abs::Known).unwrap_or(Abs::Unknown)))
                .collect();
            check_struct_lit(schemas, path, &lit.name, lit.line, &fields, &mut out);
        }
        out
    }

    /// Totality/determinacy checks for one `.cvalidator` file (if present).
    fn check_validator(&self, vpath: &str, type_names: &BTreeSet<String>) -> Vec<Finding> {
        let Some(facts) = self.facts_for(vpath) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut validate: Option<&Arc<FuncDef>> = None;
        let mut validate_line = 1;
        for stmt in &facts.module.stmts {
            if let StmtKind::Def(def) = &stmt.kind {
                if def.name == "validate" {
                    validate = Some(def);
                    validate_line = stmt.line;
                }
            }
        }
        match validate {
            None => out.push(Finding {
                path: vpath.to_string(),
                line: 1,
                check: check::TOTALITY,
                severity: Severity::Error,
                message: "validator defines no validate() function".to_string(),
            }),
            Some(def) => {
                if def.params.is_empty() {
                    out.push(Finding {
                        path: vpath.to_string(),
                        line: validate_line,
                        check: check::TOTALITY,
                        severity: Severity::Error,
                        message: "validate() takes no parameters; it can never see the config"
                            .to_string(),
                    });
                } else if !validator_is_total(def) {
                    out.push(Finding {
                        path: vpath.to_string(),
                        line: validate_line,
                        check: check::TOTALITY,
                        severity: Severity::Error,
                        message: "validate() can complete without evaluating any require()/fail() \
                             — a partial validator silently passes bad configs"
                            .to_string(),
                    });
                }
            }
        }
        // Unbound names inside the validator module itself.
        let import_bindings: BTreeSet<String> = facts
            .imports
            .iter()
            .filter_map(|(p, _)| self.facts_for(p))
            .flat_map(|f| f.bindings.iter().cloned().collect::<Vec<_>>())
            .collect();
        let mut visible: HashSet<&str> = facts.bindings.iter().map(String::as_str).collect();
        visible.extend(import_bindings.iter().map(String::as_str));
        visible.extend(type_names.iter().map(String::as_str));
        visible.extend(BUILTINS.iter().copied());
        for (name, line) in &facts.free_refs {
            if !visible.contains(name.as_str()) {
                out.push(Finding {
                    path: vpath.to_string(),
                    line: *line,
                    check: check::DETERMINACY,
                    severity: Severity::Error,
                    message: format!("name '{name}' is not defined in any reachable scope"),
                });
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Checks one struct literal against the schema set: every way the
/// interpreter's struct construction would provably reject it (an
/// `Unknown` field always passes), plus the constant-fold lints.
fn check_struct_lit(
    schemas: &SchemaSet,
    path: &str,
    name: &str,
    line: u32,
    fields: &[(String, Abs)],
    out: &mut Vec<Finding>,
) {
    let err = |line: u32, check: &'static str, message: String| Finding {
        path: path.to_string(),
        line,
        check,
        severity: Severity::Error,
        message,
    };
    let def = match schemas.get(name) {
        Some(TypeDef::Struct(s)) => s.clone(),
        Some(TypeDef::Enum(_)) => {
            out.push(err(
                line,
                check::SCHEMA_TYPE,
                format!("{name} is an enum, not a struct"),
            ));
            return;
        }
        // Schema sets are gathered per-entry; a literal whose type is not
        // declared anywhere reachable fails at runtime, but only if it
        // executes — stay silent to preserve zero false positives.
        None => return,
    };
    for (fname, _) in fields {
        if !def.fields.iter().any(|f| f.name == *fname) {
            out.push(err(
                line,
                check::SCHEMA_TYPE,
                format!("struct {name} has no field {fname}"),
            ));
        }
    }
    for fdef in &def.fields {
        let provided = fields.iter().find(|(n, _)| *n == fdef.name);
        match provided {
            None => {
                if fdef.default.is_none() && !fdef.optional {
                    out.push(err(
                        line,
                        check::SCHEMA_TYPE,
                        format!("missing required field {} of struct {name}", fdef.name),
                    ));
                }
            }
            Some((_, abs)) => {
                if let Some(msg) = check_abs_type(abs, &fdef.ty, schemas) {
                    out.push(err(
                        line,
                        check::SCHEMA_TYPE,
                        format!("field {name}.{}: {msg}", fdef.name),
                    ));
                }
                // Constant-fold lints: ports and required lists.
                if let Abs::Known(Value::Int(p)) = abs {
                    let is_port = matches!(&fdef.ty, Type::I32 | Type::I64)
                        && (fdef.name == "port" || fdef.name.ends_with("_port"));
                    if is_port && !(1..=65535).contains(p) {
                        out.push(err(
                            line,
                            check::CONST_FOLD,
                            format!("field {name}.{}: port {p} outside 1..=65535", fdef.name),
                        ));
                    }
                }
                if let Abs::Known(Value::List(items)) = abs {
                    if items.is_empty()
                        && matches!(&fdef.ty, Type::List(_))
                        && !fdef.optional
                        && fdef.default.is_none()
                    {
                        out.push(err(
                            line,
                            check::CONST_FOLD,
                            format!("field {name}.{}: required list is empty", fdef.name),
                        ));
                    }
                }
            }
        }
    }
}

/// Why the interpreter would provably reject `abs` as a field of type `ty`,
/// if it would.
fn check_abs_type(abs: &Abs, ty: &Type, schemas: &SchemaSet) -> Option<String> {
    match abs {
        Abs::Unknown => None,
        Abs::Struct { name, .. } => match ty {
            Type::Named(tname) => match schemas.get(tname) {
                Some(TypeDef::Struct(_)) if name == tname => None,
                Some(TypeDef::Struct(_)) => {
                    Some(format!("expected {}, found struct {name}", ty.render()))
                }
                _ => None,
            },
            _ => Some(format!("expected {}, found struct {name}", ty.render())),
        },
        Abs::Known(v) => schemas
            .coerce(v, ty)
            .err()
            .filter(|why| !why.starts_with(UNKNOWN_TYPE)),
    }
}

/// Flow-sensitive symbolic walk of an entry module's top-level code:
/// tracks an abstract environment, checks struct literals with
/// environment knowledge, and flags dead `export_if_last` arms.
struct EntryWalker<'a> {
    /// `None` evaluates with no schema knowledge and reports nothing: see
    /// [`const_eval`].
    schemas: Option<&'a SchemaSet>,
    path: &'a str,
    findings: &'a mut BTreeSet<Finding>,
}

impl EntryWalker<'_> {
    fn walk_stmts(&mut self, stmts: &[Stmt], env: &mut BTreeMap<String, Abs>) {
        for stmt in stmts {
            match &stmt.kind {
                StmtKind::Assign { name, value } => {
                    let abs = self.eval(value, env);
                    env.insert(name.clone(), abs);
                }
                StmtKind::Expr(e) => {
                    self.eval(e, env);
                }
                StmtKind::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    let c = self.eval(cond, env);
                    match c {
                        Abs::Known(v) => {
                            let (live, dead) = if v.truthy() {
                                (then, otherwise)
                            } else {
                                (otherwise, then)
                            };
                            self.flag_dead_exports(dead);
                            self.walk_stmts(live, env);
                        }
                        _ => {
                            let mut then_env = env.clone();
                            let mut else_env = env.clone();
                            self.walk_stmts(then, &mut then_env);
                            self.walk_stmts(otherwise, &mut else_env);
                            let keys: BTreeSet<String> =
                                then_env.keys().chain(else_env.keys()).cloned().collect();
                            env.clear();
                            for k in keys {
                                let t = then_env.remove(&k).unwrap_or(Abs::Unknown);
                                let e = else_env.remove(&k).unwrap_or(Abs::Unknown);
                                env.insert(k, t.join(e));
                            }
                        }
                    }
                }
                StmtKind::For { var, iter, body } => {
                    self.eval(iter, env);
                    let mut assigned = BTreeSet::new();
                    assigned.insert(var.clone());
                    collect_bindings(body, &mut assigned);
                    let mut scratch = env.clone();
                    for name in &assigned {
                        scratch.insert(name.clone(), Abs::Unknown);
                    }
                    self.walk_stmts(body, &mut scratch);
                    for name in assigned {
                        env.insert(name, Abs::Unknown);
                    }
                }
                // Function bodies are covered by the context-free pass.
                _ => {}
            }
        }
    }

    /// Structurally finds `export_if_last` calls in a dead branch.
    fn flag_dead_exports(&mut self, stmts: &[Stmt]) {
        walk_stmts(stmts, Defs::Skip, &mut |e| {
            if calls(e, &["export_if_last"]) {
                self.findings.insert(Finding {
                    path: self.path.to_string(),
                    line: e.line,
                    check: check::REACHABILITY,
                    severity: Severity::Error,
                    message: "export_if_last arm is unreachable (its condition is constant)"
                        .to_string(),
                });
            }
        });
    }

    /// The abstract value of `e`. `Known(v)` is strict: the interpreter,
    /// evaluating `e` where every name holds what `env` says, yields `v`
    /// and no error. Sub-expressions the interpreter would skip are still
    /// walked, for the struct literals in them.
    fn eval(&mut self, e: &Expr, env: &BTreeMap<String, Abs>) -> Abs {
        let known = |folded: Result<Value, String>| folded.map_or(Abs::Unknown, Abs::Known);
        match &e.kind {
            ExprKind::Null => Abs::Known(Value::Null),
            ExprKind::Bool(b) => Abs::Known(Value::Bool(*b)),
            ExprKind::Int(i) => Abs::Known(Value::Int(*i)),
            ExprKind::Float(f) => Abs::Known(Value::Float(*f)),
            ExprKind::Str(s) => Abs::Known(Value::str(s)),
            ExprKind::Name(n) => env.get(n).cloned().unwrap_or(Abs::Unknown),
            ExprKind::List(items) => {
                let abs: Vec<Abs> = items.iter().map(|i| self.eval(i, env)).collect();
                let known: Option<Vec<Value>> = abs
                    .into_iter()
                    .map(|a| match a {
                        Abs::Known(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                known.map_or(Abs::Unknown, |v| Abs::Known(Value::list(v)))
            }
            ExprKind::Dict(pairs) => {
                let mut map = BTreeMap::new();
                for (k, v) in pairs {
                    match (self.eval(k, env), self.eval(v, env)) {
                        (Abs::Known(Value::Str(ks)), Abs::Known(vv)) => {
                            map.insert(ks.to_string(), vv);
                        }
                        _ => return Abs::Unknown,
                    }
                }
                Abs::Known(Value::dict(map))
            }
            ExprKind::Struct { name, fields } => {
                let fields: Vec<(String, Abs)> = fields
                    .iter()
                    .map(|(n, v)| (n.clone(), self.eval(v, env)))
                    .collect();
                if let Some(schemas) = self.schemas {
                    let mut found = Vec::new();
                    check_struct_lit(schemas, self.path, name, e.line, &fields, &mut found);
                    self.findings.extend(found);
                }
                Abs::Struct {
                    name: name.clone(),
                    fields,
                }
            }
            ExprKind::Bin(op, l, r) => match (op, self.eval(l, env), self.eval(r, env)) {
                // The left operand alone decides which one `and`/`or` yield.
                (BinOp::And, Abs::Known(l), r) | (BinOp::Or, Abs::Known(l), r) => {
                    if l.truthy() == (*op == BinOp::And) {
                        r
                    } else {
                        Abs::Known(l)
                    }
                }
                (_, Abs::Known(l), Abs::Known(r)) => known(l.binary(*op, &r)),
                _ => Abs::Unknown,
            },
            ExprKind::Un(op, v) => match self.eval(v, env) {
                Abs::Known(v) => known(v.unary(*op)),
                _ => Abs::Unknown,
            },
            ExprKind::Call { .. } => {
                e.for_each_child(&mut |sub| {
                    self.eval(sub, env);
                });
                Abs::Unknown
            }
            ExprKind::Index(b, i) => match (self.eval(b, env), self.eval(i, env)) {
                (Abs::Known(b), Abs::Known(i)) => known(b.index(&i)),
                _ => Abs::Unknown,
            },
            ExprKind::Attr(base, attr) => match (self.eval(base, env), self.schemas) {
                (Abs::Known(b), _) => known(b.attr(attr)),
                // A field reads back as construction coerced it.
                (Abs::Struct { name, fields }, Some(schemas)) => {
                    let ty = schemas.get_struct(&name).and_then(|def| {
                        let fdef = def.fields.iter().find(|f| f.name == *attr)?;
                        Some(&fdef.ty)
                    });
                    match (fields.into_iter().find(|(n, _)| n == attr), ty) {
                        (Some((_, Abs::Known(v))), Some(ty)) => known(schemas.coerce(&v, ty)),
                        (Some((_, nested @ Abs::Struct { .. })), Some(_)) => nested,
                        _ => Abs::Unknown,
                    }
                }
                _ => Abs::Unknown,
            },
            ExprKind::Cond {
                then,
                cond,
                otherwise,
            } => match self.eval(cond, env) {
                Abs::Known(c) if c.truthy() => self.eval(then, env),
                Abs::Known(_) => self.eval(otherwise, env),
                _ => {
                    self.eval(then, env);
                    self.eval(otherwise, env);
                    Abs::Unknown
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn verify_tree(files: &[(&str, &str)], entries: &[&str]) -> VerifyReport {
        let tree: BTreeMap<String, String> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let verifier = Verifier::new(&tree);
        let entries: Vec<String> = entries.iter().map(|e| e.to_string()).collect();
        verifier.verify(&entries)
    }

    const SCHEMA: &str = "struct Job { 1: string name 2: i64 weight = 10 3: i32 port = 8080 }";
    const VALIDATOR: &str = "def validate(cfg):\n    require(cfg.weight >= 0, \"w\")\n";

    fn checks_of(report: &VerifyReport, severity: Severity) -> Vec<&'static str> {
        report
            .findings
            .iter()
            .filter(|f| f.severity == severity)
            .map(|f| f.check)
            .collect()
    }

    #[test]
    fn clean_entry_verifies_clean() {
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                ("schemas/job.cvalidator", VALIDATOR),
                (
                    "a.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"a\" })\n",
                ),
            ],
            &["a.cconf"],
        );
        assert!(!report.has_errors(), "{report}");
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn type_mismatch_in_unreached_branch_is_caught() {
        // The guard calls a function, so the interpreter's concrete run
        // takes only one arm — but the payload type is wrong regardless
        // of which arm runs, and the static scan sees it.
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                ("schemas/job.cvalidator", VALIDATOR),
                (
                    "m.cinc",
                    "def f(x):\n    return x + 1\n",
                ),
                (
                    "a.cconf",
                    "import \"m.cinc\"\nschema \"schemas/job.schema\"\nif f(1) > 99:\n    export_if_last(Job { name: 7 })\nexport_if_last(Job { name: \"ok\" })\n",
                ),
            ],
            &["a.cconf"],
        );
        assert!(checks_of(&report, Severity::Error).contains(&check::SCHEMA_TYPE));
    }

    #[test]
    fn constant_false_export_arm_is_dead() {
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                ("schemas/job.cvalidator", VALIDATOR),
                (
                    "a.cconf",
                    "schema \"schemas/job.schema\"\nif 1 > 2:\n    export_if_last(Job { name: \"dead\" })\nexport_if_last(Job { name: \"live\" })\n",
                ),
            ],
            &["a.cconf"],
        );
        let errors = checks_of(&report, Severity::Error);
        assert!(errors.contains(&check::REACHABILITY), "{report}");
    }

    #[test]
    fn partial_validator_is_rejected() {
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                (
                    "schemas/job.cvalidator",
                    "def validate(cfg):\n    if cfg.weight > 100:\n        fail(\"cap\")\n",
                ),
                (
                    "a.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"a\" })\n",
                ),
            ],
            &["a.cconf"],
        );
        assert!(checks_of(&report, Severity::Error).contains(&check::TOTALITY));
    }

    #[test]
    fn unbound_name_yields_determinacy_error_and_repair_hint() {
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                ("schemas/job.cvalidator", VALIDATOR),
                (
                    "a.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"a\", weight: MISSING })\n",
                ),
            ],
            &["a.cconf"],
        );
        assert!(checks_of(&report, Severity::Error).contains(&check::DETERMINACY));
        assert!(
            report.hints.iter().any(|h| h.contains("MISSING")),
            "expected a repair hint naming the unbound binding: {report}"
        );
    }

    #[test]
    fn constant_out_of_range_port_folds_to_an_error() {
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                ("schemas/job.cvalidator", VALIDATOR),
                (
                    "a.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"a\", port: 70000 })\n",
                ),
            ],
            &["a.cconf"],
        );
        assert!(checks_of(&report, Severity::Error).contains(&check::CONST_FOLD));
    }

    #[test]
    fn unused_import_is_a_warning_not_a_rejection() {
        let report = verify_tree(
            &[
                ("schemas/job.schema", SCHEMA),
                ("schemas/job.cvalidator", VALIDATOR),
                ("m.cinc", "M_UNUSED = 1\n"),
                (
                    "a.cconf",
                    "import \"m.cinc\"\nschema \"schemas/job.schema\"\nexport_if_last(Job { name: \"a\" })\n",
                ),
            ],
            &["a.cconf"],
        );
        assert!(!report.has_errors(), "{report}");
        assert!(checks_of(&report, Severity::Warning).contains(&check::REACHABILITY));
    }

    #[test]
    fn findings_are_sorted_and_the_report_renders_stably() {
        let files = [
            ("schemas/job.schema", SCHEMA),
            ("schemas/job.cvalidator", VALIDATOR),
            (
                "b.cconf",
                "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"b\", weight: GONE })\n",
            ),
            (
                "a.cconf",
                "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"a\", port: 99999 })\n",
            ),
        ];
        let r1 = verify_tree(&files, &["b.cconf", "a.cconf"]);
        let r2 = verify_tree(&files, &["b.cconf", "a.cconf"]);
        assert_eq!(format!("{r1}"), format!("{r2}"));
        let paths: Vec<&str> = r1.findings.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted, "findings must come out path-sorted");
    }

    #[test]
    fn a_field_of_an_abstract_struct_reads_back_as_construction_coerced_it() {
        // `t.kind` is the enum variant, not the string it was written as,
        // so the comparison is false and it is the *first* export that can
        // never run.
        let report = verify_tree(
            &[
                ("k.schema", "enum Kind { A, B }\nstruct T { 1: Kind kind }"),
                (
                    "a.cconf",
                    "schema \"k.schema\"\nt = T { kind: \"A\" }\nif t.kind == \"A\":\n    \
                     export_if_last(t)\nelse:\n    export_if_last(T { kind: \"B\" })\n",
                ),
            ],
            &["a.cconf"],
        );
        let dead: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(dead, vec![4], "{report}");
        let compiled = crate::Compiler::new(&BTreeMap::from([
            (
                "k.schema".to_string(),
                "enum Kind { A, B }\nstruct T { 1: Kind kind }".to_string(),
            ),
            (
                "a.cconf".to_string(),
                "schema \"k.schema\"\nt = T { kind: \"A\" }\nexport_if_last(t.kind == \"A\")\n"
                    .to_string(),
            ),
        ]))
        .compile("a.cconf")
        .unwrap();
        assert_eq!(compiled.json.trim(), "false");
    }

    #[test]
    fn abs_join_keeps_equal_values_and_widens_unequal_ones() {
        let k1 = Abs::Known(Value::Int(1));
        assert!(matches!(
            k1.clone().join(Abs::Known(Value::Int(1))),
            Abs::Known(_)
        ));
        assert!(matches!(k1.join(Abs::Known(Value::Int(2))), Abs::Unknown));
    }
}
