//! The Configerator service: version-controlled sources, the compiler
//! pipeline, and the dependency service.
//!
//! "The source code of config programs and generated JSON configs are
//! stored in a version control tool" (§3.1). A commit flows through this
//! service as follows:
//!
//! 1. the staged source changes are overlaid on the current source tree;
//! 2. the dependency service computes which config programs must be
//!    (re)compiled — the changed entry files plus every entry whose
//!    dependency set intersects the changed paths ("If APP_PORT in
//!    app_port.cinc is changed, the Configerator compiler automatically
//!    recompiles both app.cconf and firewall.cconf");
//! 3. every affected program is compiled and validated; any failure
//!    rejects the whole commit, leaving the repository untouched — and all
//!    failures in the batch are reported together, not just the first;
//! 4. sources and regenerated JSON land in **one git commit**, "which
//!    ensures consistency".
//!
//! # Incremental, parallel compilation
//!
//! The compile step is engineered for wide ripples (a popular `.cinc`
//! with thousands of dependents):
//!
//! * **Fingerprint skip** — every committed entry carries a fingerprint:
//!   a SHA-1 over the compiler version, the entry source, every recorded
//!   dependency source, and the probed-but-absent validator paths. During
//!   planning, a candidate whose fingerprint is unchanged is skipped and
//!   its stored artifact reused — byte-identical to a recompile by
//!   construction, because identical inputs compile to identical canonical
//!   JSON.
//! * **Shared parse cache** — all compiles share one content-addressed
//!   [`ParseCache`], so each module/schema/validator source is lexed and
//!   parsed once per batch *and* stays warm across commits (an edit simply
//!   misses on the new content).
//! * **Shared module evaluation** — with the parse cache on, the compiles
//!   of one plan also share a [`ModuleStore`]: each imported module and
//!   validator is evaluated once per plan and linked, not re-executed and
//!   copied, by every other entry that imports it.
//! * **Parallel execution** — remaining candidates compile on a scoped
//!   thread pool. Results are ordered by entry path and errors are
//!   collected and sorted, so the outcome is byte-for-byte deterministic
//!   regardless of worker count or cache state.
//!
//! Raw configs (§6.1) — files not produced by the compiler, usually
//! written by automation tools — are stored and distributed unchanged.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use bytes::Bytes;
use cdsl::compile::{CompiledConfig, Compiler, COMPILER_VERSION};
use cdsl::interp::Loader;
use cdsl::{content_key, CacheStats, ContentKey, ModuleStore, ParseCache};
use gitstore::multirepo::MultiRepo;
use gitstore::object::ObjectId;
use gitstore::repo::Change;
use simnet::stats::Metrics;

use crate::metrics;

/// Where compiled artifacts live in the repository namespace.
pub const COMPILED_PREFIX: &str = "compiled/";
/// Where source files live.
pub const SOURCE_PREFIX: &str = "source/";
/// Where raw configs live.
pub const RAW_PREFIX: &str = "raw/";

/// Classifies a repository path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// A config program entry point (`.cconf`) — compiles to an artifact.
    Entry,
    /// A reusable module, schema, or validator.
    Support,
    /// A raw config.
    Raw,
    /// A compiled artifact (managed by the service, not user-writable).
    Compiled,
    /// Anything else.
    Other,
}

/// Classifies `path` by prefix and extension.
pub fn classify(path: &str) -> PathKind {
    if path.starts_with(COMPILED_PREFIX) {
        PathKind::Compiled
    } else if path.starts_with(RAW_PREFIX) {
        PathKind::Raw
    } else if path.starts_with(SOURCE_PREFIX) {
        if path.ends_with(".cconf") {
            PathKind::Entry
        } else {
            PathKind::Support
        }
    } else {
        PathKind::Other
    }
}

/// The distributable name of a config: for `source/a/b.cconf` it is
/// `a/b`; for `raw/x/y.json` it is `x/y.json`.
pub fn config_name(path: &str) -> Option<String> {
    if let Some(rest) = path.strip_prefix(SOURCE_PREFIX) {
        rest.strip_suffix(".cconf").map(str::to_string)
    } else {
        path.strip_prefix(RAW_PREFIX).map(|rest| rest.to_string())
    }
}

/// The repository path of a compiled artifact for config `name`.
pub fn compiled_path(name: &str) -> String {
    format!("{COMPILED_PREFIX}{name}.json")
}

/// One compile failure within a rejected batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileFailure {
    /// The entry that failed.
    pub entry: String,
    /// The compiler error.
    pub error: cdsl::CdslError,
}

impl fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compiling {}: {}", self.entry, self.error)
    }
}

/// Errors from the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A change targets a path engineers may not write
    /// (e.g. `compiled/…`).
    ForbiddenPath(String),
    /// Compilation or validation of a single config program failed (the
    /// preview path).
    Compile {
        /// The entry that failed.
        entry: String,
        /// The compiler error.
        error: cdsl::CdslError,
    },
    /// One or more programs in a commit batch failed to compile or
    /// validate. Sorted by entry path; every failure in the batch is
    /// reported, not just the first.
    CompileMany(Vec<CompileFailure>),
    /// Static verification rejected the commit before anything compiled
    /// (the pre-commit gate; see [`cdsl::analysis`]).
    Verify(cdsl::VerifyReport),
    /// The underlying store rejected the commit.
    Store(gitstore::repo::Error),
    /// The commit contained no changes.
    Empty,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ForbiddenPath(p) => write!(f, "path not writable: {p}"),
            ServiceError::Compile { entry, error } => {
                write!(f, "compiling {entry}: {error}")
            }
            ServiceError::CompileMany(failures) => {
                write!(f, "{} config(s) failed to compile: ", failures.len())?;
                for (i, fail) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{fail}")?;
                }
                Ok(())
            }
            ServiceError::Verify(report) => {
                write!(
                    f,
                    "static verification rejected the commit: {} error(s)",
                    report.error_count()
                )?;
                for finding in report
                    .findings
                    .iter()
                    .filter(|x| x.severity == cdsl::Severity::Error)
                {
                    write!(f, "; {finding}")?;
                }
                Ok(())
            }
            ServiceError::Store(e) => write!(f, "store error: {e}"),
            ServiceError::Empty => write!(f, "empty commit"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Tuning knobs for the compile pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Worker threads for the compile step. `0` picks the machine's
    /// available parallelism (capped at 8); `1` compiles serially.
    pub workers: usize,
    /// Skip candidates whose fingerprint is unchanged, reusing the stored
    /// artifact.
    pub incremental: bool,
    /// Share parsed ASTs through the content-addressed [`ParseCache`],
    /// and, within one plan, evaluated modules through a [`ModuleStore`].
    pub parse_cache: bool,
    /// Run the static verifier ([`cdsl::analysis`]) as a pre-commit gate:
    /// error findings reject the commit before anything compiles.
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            workers: 0,
            incremental: true,
            parse_cache: true,
            verify: true,
        }
    }
}

impl CompileOptions {
    /// The pre-optimization pipeline: serial, no cache, no fingerprint
    /// skips, no static verification. Used as the baseline in benchmarks
    /// and differential tests.
    pub fn legacy() -> CompileOptions {
        CompileOptions {
            workers: 1,
            incremental: false,
            parse_cache: false,
            verify: false,
        }
    }
}

/// What the compile step of one plan did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Entries in the compile set (direct edits + dependency ripple).
    pub candidates: usize,
    /// Entries actually compiled.
    pub compiled: usize,
    /// Entries skipped by an unchanged fingerprint.
    pub skipped: usize,
    /// Parse-cache hits during this plan.
    pub parse_hits: u64,
    /// Parse-cache misses during this plan.
    pub parse_misses: u64,
    /// Total microseconds of compile work (summed across workers, so it
    /// can exceed wall-clock under parallelism).
    pub compile_us: u64,
    /// Wall-clock microseconds of the static verify pass (0 when the
    /// verify gate is off).
    pub verify_us: u64,
}

/// A successful commit through the service.
#[derive(Debug, Clone)]
pub struct CommitReport {
    /// The resulting commit ids, one per affected repository partition.
    pub commits: Vec<ObjectId>,
    /// Config names whose compiled artifacts changed (to be distributed).
    pub updated_configs: Vec<String>,
    /// Entries recompiled because a dependency changed (not directly
    /// edited).
    pub ripple_recompiles: Vec<String>,
    /// Entry paths actually compiled in this commit, sorted.
    pub recompiled_entries: Vec<String>,
    /// Entry paths skipped by an unchanged fingerprint, sorted.
    pub skipped_entries: Vec<String>,
    /// Compile-step statistics.
    pub stats: CompileStats,
    /// Timestamp of the commit.
    pub timestamp: u64,
}

/// The dependency service (Figure 3): tracks, for every source path, which
/// entry configs depend on it. Dependencies are extracted by the compiler
/// from `import`/`schema` statements — never declared by hand.
#[derive(Debug, Clone, Default)]
pub struct DependencyService {
    /// dependency path → entry paths that depend on it (includes probe
    /// edges: paths the compiler looked for but found absent).
    dependents: HashMap<String, BTreeSet<String>>,
    /// entry path → its dependency list.
    deps: HashMap<String, Vec<String>>,
    /// entry path → paths probed but absent when it last compiled.
    /// *Creating* one of these must recompile the entry, so they index
    /// into `dependents` too.
    probes: HashMap<String, Vec<String>>,
}

impl DependencyService {
    /// Records the dependency list of `entry` (replacing any previous).
    pub fn update(&mut self, entry: &str, deps: Vec<String>) {
        self.update_with_probes(entry, deps, Vec::new());
    }

    /// Records the dependency list of `entry` plus the paths its compile
    /// probed but found absent (conventionally `<schema>.cvalidator`
    /// candidates). Probe edges make *creating* such a file ripple into
    /// the entries that would pick it up.
    pub fn update_with_probes(&mut self, entry: &str, deps: Vec<String>, probed: Vec<String>) {
        let old_deps = self.deps.remove(entry).unwrap_or_default();
        let old_probes = self.probes.remove(entry).unwrap_or_default();
        for d in old_deps.iter().chain(old_probes.iter()) {
            if let Some(set) = self.dependents.get_mut(d) {
                set.remove(entry);
            }
        }
        for d in deps.iter().chain(probed.iter()) {
            self.dependents
                .entry(d.clone())
                .or_default()
                .insert(entry.to_string());
        }
        self.deps.insert(entry.to_string(), deps);
        if !probed.is_empty() {
            self.probes.insert(entry.to_string(), probed);
        }
    }

    /// Removes an entry entirely.
    pub fn remove(&mut self, entry: &str) {
        self.update_with_probes(entry, Vec::new(), Vec::new());
        self.deps.remove(entry);
    }

    /// Entries that depend on any of `paths` (including probe edges).
    pub fn dependents_of<'a>(&self, paths: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in paths {
            if let Some(set) = self.dependents.get(p) {
                out.extend(set.iter().cloned());
            }
        }
        out
    }

    /// The recorded dependency list of `entry` (real dependencies only,
    /// not probe edges).
    pub fn deps_of(&self, entry: &str) -> Option<&[String]> {
        self.deps.get(entry).map(Vec::as_slice)
    }

    /// The paths `entry` probed but found absent at its last compile.
    pub fn probes_of(&self, entry: &str) -> &[String] {
        self.probes.get(entry).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A compiled artifact tracked by the service.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Config name (distribution path).
    pub name: String,
    /// Canonical JSON.
    pub json: String,
    /// Schema type, if the config is a struct.
    pub type_name: Option<String>,
}

/// The compile record retained per entry for incremental planning.
#[derive(Debug, Clone)]
struct CompileRecord {
    /// The full compile result of the last landed commit.
    result: CompiledConfig,
    /// Fingerprint of the inputs that produced it (`None` disables
    /// skipping for this entry).
    fingerprint: Option<[u8; 20]>,
}

/// Loader view over a base snapshot plus staged overlay.
struct OverlayLoader<'a> {
    base: &'a MultiRepo,
    overlay: &'a BTreeMap<String, Option<Bytes>>,
}

impl Loader for OverlayLoader<'_> {
    fn load(&self, path: &str) -> Option<String> {
        let full = format!("{SOURCE_PREFIX}{path}");
        if let Some(staged) = self.overlay.get(&full) {
            return staged
                .as_ref()
                .and_then(|b| String::from_utf8(b.to_vec()).ok());
        }
        self.base
            .read_head(&full)
            .ok()
            .and_then(|b| String::from_utf8(b.to_vec()).ok())
    }
}

/// Memoized per-path content keys over one plan's overlay view: a shared
/// dependency (the hot `.cinc` of a wide ripple) is loaded and hashed
/// once per plan, not once per dependent entry.
struct SourceIndex<'a> {
    loader: &'a dyn Loader,
    keys: HashMap<String, Option<ContentKey>>,
}

impl<'a> SourceIndex<'a> {
    fn new(loader: &'a dyn Loader) -> SourceIndex<'a> {
        SourceIndex {
            loader,
            keys: HashMap::new(),
        }
    }

    /// The content key of `path`, or `None` if it does not exist.
    fn key(&mut self, path: &str) -> Option<ContentKey> {
        if let Some(k) = self.keys.get(path) {
            return *k;
        }
        let k = self.loader.load(path).map(|src| content_key(&src));
        self.keys.insert(path.to_string(), k);
        k
    }

    /// Computes the input fingerprint of a compiled entry: SHA-1 over the
    /// compiler version and the content key of the entry source, every
    /// dependency source (path + key, length-prefixed), and the
    /// probed-absent paths. Hashing keys instead of full contents commits
    /// to the same inputs while touching each distinct source once per
    /// plan. Returns `None` when an input is missing or a probed-absent
    /// path now exists — both mean "cannot prove freshness", which forces
    /// a recompile.
    fn fingerprint(&mut self, entry: &str, out: &CompiledConfig) -> Option<[u8; 20]> {
        fn feed(buf: &mut Vec<u8>, tag: u8, path: &str, key: ContentKey) {
            buf.push(tag);
            buf.extend_from_slice(&(path.len() as u64).to_le_bytes());
            buf.extend_from_slice(path.as_bytes());
            buf.extend_from_slice(&key.to_bytes());
        }
        let mut buf = Vec::with_capacity(8 + 40 * (1 + out.deps.len() + out.probed_absent.len()));
        buf.extend_from_slice(&COMPILER_VERSION.to_le_bytes());
        feed(&mut buf, 1, entry, self.key(entry)?);
        for dep in &out.deps {
            let key = self.key(dep)?;
            feed(&mut buf, 2, dep, key);
        }
        for probed in &out.probed_absent {
            if self.key(probed).is_some() {
                return None;
            }
            feed(&mut buf, 3, probed, ContentKey::default());
        }
        Some(gitstore::sha1::sha1(&buf))
    }
}

/// One entry's outcome within a plan.
struct PlannedEntry {
    out: CompiledConfig,
    fingerprint: Option<[u8; 20]>,
    skipped: bool,
    micros: u64,
}

/// The front half of a commit: overlay, compiled entries (ordered by
/// entry path), directly-edited set, and compile statistics.
struct PlanOutcome {
    overlay: BTreeMap<String, Option<Bytes>>,
    planned: Vec<PlannedEntry>,
    direct: HashSet<String>,
    stats: CompileStats,
}

/// The Configerator service for one region.
#[derive(Clone)]
pub struct ConfigeratorService {
    repo: MultiRepo,
    dependency: DependencyService,
    artifacts: BTreeMap<String, Artifact>,
    records: HashMap<String, CompileRecord>,
    options: CompileOptions,
    parse_cache: Arc<ParseCache>,
    verify_facts: Arc<cdsl::FactsCache>,
    metrics: Metrics,
    clock: u64,
}

impl Default for ConfigeratorService {
    fn default() -> ConfigeratorService {
        ConfigeratorService::new()
    }
}

impl ConfigeratorService {
    /// Creates an empty service with a single repository partition and the
    /// default (parallel, incremental, cached) compile options.
    pub fn new() -> ConfigeratorService {
        ConfigeratorService::with_options(CompileOptions::default())
    }

    /// Creates an empty service with explicit compile options.
    pub fn with_options(options: CompileOptions) -> ConfigeratorService {
        ConfigeratorService {
            repo: MultiRepo::new(),
            dependency: DependencyService::default(),
            artifacts: BTreeMap::new(),
            records: HashMap::new(),
            options,
            parse_cache: Arc::new(ParseCache::new()),
            verify_facts: Arc::new(cdsl::FactsCache::new()),
            metrics: Metrics::default(),
            clock: 0,
        }
    }

    /// Adds a repository partition for `prefix` (§3.6's partitioned
    /// namespace), e.g. `"source/feed/"`.
    pub fn add_partition(&mut self, prefix: &str) {
        self.repo.add_repo(prefix);
    }

    /// The underlying version-control store.
    pub fn repo(&self) -> &MultiRepo {
        &self.repo
    }

    /// The dependency service.
    pub fn dependency(&self) -> &DependencyService {
        &self.dependency
    }

    /// The current compile options.
    pub fn compile_options(&self) -> CompileOptions {
        self.options
    }

    /// Replaces the compile options (takes effect on the next plan).
    pub fn set_compile_options(&mut self, options: CompileOptions) {
        self.options = options;
    }

    /// Metrics recorded by the commit pipeline
    /// ([`metrics::COMPILE_US`] and friends).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Cumulative parse-cache counters.
    pub fn parse_cache_stats(&self) -> CacheStats {
        self.parse_cache.stats()
    }

    /// Advances and returns the logical clock (seconds).
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Sets the logical clock (for experiments replaying timed histories).
    pub fn set_clock(&mut self, t: u64) {
        self.clock = self.clock.max(t);
    }

    /// The compiled artifact for config `name`.
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.get(name)
    }

    /// Names of all distributable configs (compiled and raw).
    pub fn config_names(&self) -> Vec<String> {
        self.artifacts.keys().cloned().collect()
    }

    /// Reads the current source of `path` (without the `source/` prefix).
    pub fn read_source(&self, path: &str) -> Option<String> {
        self.repo
            .read_head(&format!("{SOURCE_PREFIX}{path}"))
            .ok()
            .and_then(|b| String::from_utf8(b.to_vec()).ok())
    }

    /// Dry-run: validates and compiles `changes` without committing.
    /// Returns the compile results for every affected entry (skipped
    /// candidates report their stored result). This is what Sandcastle
    /// and the manual-test path run against a proposed diff.
    pub fn check_changes(
        &self,
        changes: &BTreeMap<String, Option<String>>,
    ) -> Result<Vec<CompiledConfig>, ServiceError> {
        let outcome = self.plan(changes)?;
        Ok(outcome.planned.into_iter().map(|p| p.out).collect())
    }

    /// The worker count a plan will actually use for `candidates` entries.
    fn effective_workers(&self, candidates: usize) -> usize {
        if candidates <= 1 {
            return 1;
        }
        let configured = if self.options.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8)
        } else {
            self.options.workers
        };
        configured.clamp(1, candidates)
    }

    /// Shared front half of commit/check: builds the overlay, computes the
    /// compile set, skips fingerprint-fresh candidates, and compiles the
    /// rest (in parallel when configured). The outcome is deterministic —
    /// entries ordered by path, failures collected and sorted — regardless
    /// of worker count or cache state.
    fn plan(
        &self,
        changes: &BTreeMap<String, Option<String>>,
    ) -> Result<PlanOutcome, ServiceError> {
        if changes.is_empty() {
            return Err(ServiceError::Empty);
        }
        // Build the overlay, keyed by full repository path.
        let mut overlay: BTreeMap<String, Option<Bytes>> = BTreeMap::new();
        for (path, content) in changes {
            let ok_shape = !path.is_empty()
                && !path.starts_with('/')
                && !path.ends_with('/')
                && path
                    .split('/')
                    .all(|s| !s.is_empty() && s != "." && s != "..");
            if !ok_shape {
                return Err(ServiceError::ForbiddenPath(path.clone()));
            }
            let full = format!("{SOURCE_PREFIX}{path}");
            match classify(&full) {
                PathKind::Entry | PathKind::Support => {}
                _ => return Err(ServiceError::ForbiddenPath(path.clone())),
            }
            overlay.insert(full, content.clone().map(Bytes::from));
        }

        // Which entries must compile: directly changed `.cconf` files plus
        // dependents of every changed path.
        let changed_paths: Vec<String> = changes.keys().cloned().collect();
        let mut to_compile: BTreeSet<String> = BTreeSet::new();
        let mut direct: HashSet<String> = HashSet::new();
        for p in &changed_paths {
            if p.ends_with(".cconf") && changes[p].is_some() {
                to_compile.insert(p.clone());
                direct.insert(p.clone());
            }
        }
        for dep_entry in self
            .dependency
            .dependents_of(changed_paths.iter().map(String::as_str))
        {
            // Skip entries being deleted in this very commit.
            let full = format!("{SOURCE_PREFIX}{dep_entry}");
            if overlay.get(&full).map(Option::is_some) != Some(false) {
                to_compile.insert(dep_entry);
            }
        }

        let loader = OverlayLoader {
            base: &self.repo,
            overlay: &overlay,
        };
        // Entry order is fixed up front (BTreeSet iteration is sorted);
        // every later step addresses results by index into this list.
        let entries: Vec<String> = to_compile.into_iter().collect();
        let cache_before = self.parse_cache.stats();

        // Static verification gate: analyze every compile candidate
        // without executing it; error findings reject the commit before
        // any compile work happens. Module facts are content-addressed and
        // shared across plans, so a hot dependency is analyzed once.
        let mut verify_us = 0u64;
        if self.options.verify {
            // AST builds for the sources this commit changes are compile
            // work: the compile phase parses them whether or not the
            // verify gate exists, and the shared ParseCache hands one
            // pipeline's parse to the other. Warm those parses before the
            // verify timer so `verify_us` charges the analysis itself,
            // not the parse the plan owes anyway (a wide hot module
            // otherwise bills its whole reparse to the gate).
            if self.options.parse_cache {
                for p in &changed_paths {
                    if changes[p].is_none() {
                        continue;
                    }
                    if p.ends_with(".cconf") || p.ends_with(".cinc") || p.ends_with(".cvalidator") {
                        if let Some(src) = loader.load(p) {
                            let _ = self.parse_cache.module(&src, p);
                        }
                    } else if p.ends_with(".schema") {
                        if let Some(src) = loader.load(p) {
                            let _ = self.parse_cache.schema(&src, p);
                        }
                    }
                }
            }
            let verify_start = Instant::now();
            let mut verifier = cdsl::Verifier::new(&loader).with_facts_cache(&self.verify_facts);
            if self.options.parse_cache {
                verifier = verifier.with_parse_cache(&self.parse_cache);
            }
            let mut report = verifier.verify(&entries);
            verify_us = verify_start.elapsed().as_micros() as u64;
            if report.has_errors() {
                // Tortoise-style blast-radius hint: error findings in
                // files this commit did not touch are dependents the
                // change breaks.
                let broken: Vec<&str> = report
                    .findings
                    .iter()
                    .filter(|x| x.severity == cdsl::Severity::Error)
                    .map(|x| x.path.as_str())
                    .filter(|p| !changes.contains_key(*p))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if !broken.is_empty() {
                    report.hints.push(format!(
                        "commit breaks dependent config(s): {}; minimal fix: keep the changed \
                         interface compatible or update the dependents in the same commit",
                        broken.join(", ")
                    ));
                    report.hints.sort();
                    report.hints.dedup();
                }
                return Err(ServiceError::Verify(report));
            }
        }

        // Incremental skip: candidates whose recorded fingerprint still
        // matches the overlay view reuse their stored result. The source
        // index memoizes per-path hashes, so a shared dependency is
        // loaded and hashed once for the whole plan.
        let mut index = SourceIndex::new(&loader);
        let mut slots: Vec<Option<PlannedEntry>> = Vec::with_capacity(entries.len());
        slots.resize_with(entries.len(), || None);
        let mut work: Vec<(usize, &str)> = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            if self.options.incremental {
                if let Some(rec) = self.records.get(entry) {
                    if let Some(stored) = rec.fingerprint {
                        if index.fingerprint(entry, &rec.result) == Some(stored) {
                            slots[i] = Some(PlannedEntry {
                                out: rec.result.clone(),
                                fingerprint: Some(stored),
                                skipped: true,
                                micros: 0,
                            });
                            continue;
                        }
                    }
                }
            }
            work.push((i, entry.as_str()));
        }

        // Compile the remaining candidates, serially or on a scoped pool.
        // The plan's overlay view is immutable, so beside the parse cache
        // the compiles share one store of evaluated modules: the hot
        // `.cinc` of a wide ripple is executed once for the whole plan,
        // on whichever worker reaches it first, and linked by the rest.
        // It is dropped with the plan; the next commit sees new sources.
        let shared = self
            .options
            .parse_cache
            .then(|| (&*self.parse_cache, ModuleStore::new()));
        let compile_one = |entry: &str| {
            let start = Instant::now();
            let mut compiler = Compiler::new(&loader);
            if let Some((cache, modules)) = &shared {
                compiler = compiler.with_cache(cache).with_module_store(modules);
            }
            let res = compiler.compile(entry);
            (start.elapsed().as_micros() as u64, res)
        };
        let workers = self.effective_workers(work.len());
        let mut outcomes: Vec<(usize, u64, cdsl::Result<CompiledConfig>)> =
            Vec::with_capacity(work.len());
        if workers <= 1 {
            for (slot, entry) in &work {
                let (micros, res) = compile_one(entry);
                outcomes.push((*slot, micros, res));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                let next = &next;
                let work = &work;
                let compile_one = &compile_one;
                for _ in 0..workers {
                    let tx = tx.clone();
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(slot, entry)) = work.get(i) else {
                            break;
                        };
                        let (micros, res) = compile_one(entry);
                        if tx.send((slot, micros, res)).is_err() {
                            break;
                        }
                    });
                }
            });
            drop(tx);
            outcomes.extend(rx);
        }

        let mut failures: Vec<CompileFailure> = Vec::new();
        let mut compile_us = 0u64;
        for (slot, micros, res) in outcomes {
            compile_us += micros;
            match res {
                Ok(out) => {
                    let fp = index.fingerprint(&entries[slot], &out);
                    slots[slot] = Some(PlannedEntry {
                        out,
                        fingerprint: fp,
                        skipped: false,
                        micros,
                    });
                }
                Err(error) => failures.push(CompileFailure {
                    entry: entries[slot].clone(),
                    error,
                }),
            }
        }
        if !failures.is_empty() {
            failures.sort_by(|a, b| a.entry.cmp(&b.entry));
            return Err(ServiceError::CompileMany(failures));
        }

        let cache_delta = self.parse_cache.stats().since(cache_before);
        let stats = CompileStats {
            candidates: entries.len(),
            compiled: work.len(),
            skipped: entries.len() - work.len(),
            parse_hits: cache_delta.hits,
            parse_misses: cache_delta.misses,
            compile_us,
            verify_us,
        };
        let planned = slots
            .into_iter()
            .map(|p| p.expect("every candidate compiled or skipped"))
            .collect();
        Ok(PlanOutcome {
            overlay,
            planned,
            direct,
            stats,
        })
    }

    /// Commits source changes: validates, compiles, and lands sources plus
    /// regenerated JSON in one commit per affected partition.
    ///
    /// `changes` maps source paths (without the `source/` prefix) to new
    /// contents, or `None` to delete.
    pub fn commit_source(
        &mut self,
        author: &str,
        message: &str,
        changes: BTreeMap<String, Option<String>>,
    ) -> Result<CommitReport, ServiceError> {
        let PlanOutcome {
            overlay,
            planned,
            direct,
            stats,
        } = match self.plan(&changes) {
            Ok(outcome) => outcome,
            Err(err) => {
                if let ServiceError::CompileMany(failures) = &err {
                    self.metrics
                        .incr(metrics::COMPILE_ERRORS, failures.len() as u64);
                }
                if let ServiceError::Verify(report) = &err {
                    self.metrics.incr(metrics::VERIFY_REJECTED, 1);
                    if !report.hints.is_empty() {
                        self.metrics.incr(metrics::VERIFY_REPAIR_SUGGESTED, 1);
                    }
                }
                return Err(err);
            }
        };

        // Assemble the git changes: sources plus compiled artifacts.
        let mut git_changes: Vec<Change> = Vec::new();
        for (full, content) in &overlay {
            match content {
                Some(bytes) => git_changes.push(Change::put(full.clone(), bytes.clone())),
                None => {
                    if self.repo.exists(full) {
                        git_changes.push(Change::delete(full.clone()));
                    }
                    // Deleting an entry also deletes its artifact.
                    if let Some(name) = config_name(full) {
                        let cpath = compiled_path(&name);
                        if self.repo.exists(&cpath) {
                            git_changes.push(Change::delete(cpath));
                        }
                    }
                }
            }
        }
        let mut updated = Vec::new();
        let mut ripple = Vec::new();
        for p in &planned {
            let out = &p.out;
            let name = config_name(&format!("{SOURCE_PREFIX}{}", out.path))
                .expect("entry paths always map to names");
            let cpath = compiled_path(&name);
            let changed_artifact = self
                .artifacts
                .get(&name)
                .map(|a| a.json != out.json)
                .unwrap_or(true);
            if changed_artifact {
                git_changes.push(Change::put(cpath, out.json.clone()));
                updated.push(name.clone());
                if !direct.contains(&out.path) {
                    ripple.push(name.clone());
                }
            }
        }

        let ts = self.tick();
        let commits = self
            .repo
            .commit(author, message, ts, git_changes)
            .map_err(ServiceError::Store)?
            .into_iter()
            .map(|(_, o)| o.id)
            .collect();

        // Commit landed: update dependency maps, compile records, and the
        // artifact cache.
        for (path, content) in &changes {
            if path.ends_with(".cconf") && content.is_none() {
                self.dependency.remove(path);
                self.records.remove(path);
                if let Some(name) = config_name(&format!("{SOURCE_PREFIX}{path}")) {
                    self.artifacts.remove(&name);
                }
            }
        }
        let mut recompiled_entries = Vec::new();
        let mut skipped_entries = Vec::new();
        for p in planned {
            let out = p.out;
            if p.skipped {
                skipped_entries.push(out.path.clone());
            } else {
                recompiled_entries.push(out.path.clone());
                self.metrics
                    .sample(metrics::COMPILE_US, p.micros as f64 / 1e6);
            }
            self.dependency.update_with_probes(
                &out.path,
                out.deps.clone(),
                out.probed_absent.clone(),
            );
            let name = config_name(&format!("{SOURCE_PREFIX}{}", out.path)).expect("entry");
            self.artifacts.insert(
                name.clone(),
                Artifact {
                    name,
                    json: out.json.clone(),
                    type_name: out.type_name.clone(),
                },
            );
            self.records.insert(
                out.path.clone(),
                CompileRecord {
                    fingerprint: p.fingerprint,
                    result: out,
                },
            );
        }
        self.metrics.incr(metrics::COMMITS, 1);
        self.metrics
            .incr(metrics::ENTRIES_COMPILED, stats.compiled as u64);
        self.metrics
            .incr(metrics::FINGERPRINT_SKIPS, stats.skipped as u64);
        self.metrics
            .incr(metrics::PARSE_CACHE_HITS, stats.parse_hits);
        self.metrics
            .incr(metrics::PARSE_CACHE_MISSES, stats.parse_misses);
        if self.options.verify {
            self.metrics.incr(metrics::VERIFY_CLEAN, 1);
            self.metrics
                .sample(metrics::VERIFY_US, stats.verify_us as f64 / 1e6);
        }
        Ok(CommitReport {
            commits,
            updated_configs: updated,
            ripple_recompiles: ripple,
            recompiled_entries,
            skipped_entries,
            stats,
            timestamp: ts,
        })
    }

    /// Commits a raw config (not compiler-produced; §6.1 reports most raw
    /// config updates come from automation tools).
    pub fn commit_raw(
        &mut self,
        author: &str,
        message: &str,
        name: &str,
        content: impl Into<Bytes>,
    ) -> Result<CommitReport, ServiceError> {
        let content = content.into();
        let path = format!("{RAW_PREFIX}{name}");
        let ts = self.tick();
        let json = String::from_utf8_lossy(&content).to_string();
        let commits = self
            .repo
            .commit(author, message, ts, vec![Change::put(path, content)])
            .map_err(ServiceError::Store)?
            .into_iter()
            .map(|(_, o)| o.id)
            .collect();
        self.artifacts.insert(
            name.to_string(),
            Artifact {
                name: name.to_string(),
                json,
                type_name: None,
            },
        );
        self.metrics.incr(metrics::COMMITS, 1);
        Ok(CommitReport {
            commits,
            updated_configs: vec![name.to_string()],
            ripple_recompiles: Vec::new(),
            recompiled_entries: Vec::new(),
            skipped_entries: Vec::new(),
            stats: CompileStats::default(),
            timestamp: ts,
        })
    }

    /// Compiles `entry` against the current tree without committing (the
    /// manual-test / review preview path).
    pub fn preview(&self, entry: &str) -> Result<CompiledConfig, ServiceError> {
        let overlay = BTreeMap::new();
        let loader = OverlayLoader {
            base: &self.repo,
            overlay: &overlay,
        };
        let mut compiler = Compiler::new(&loader);
        if self.options.parse_cache {
            compiler = compiler.with_cache(&self.parse_cache);
        }
        compiler
            .compile(entry)
            .map_err(|error| ServiceError::Compile {
                entry: entry.to_string(),
                error,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn changes(pairs: &[(&str, &str)]) -> BTreeMap<String, Option<String>> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), Some(s.to_string())))
            .collect()
    }

    fn service_with_port_example() -> ConfigeratorService {
        let mut svc = ConfigeratorService::new();
        svc.commit_source(
            "alice",
            "seed",
            changes(&[
                ("shared/app_port.cinc", "APP_PORT = 8089"),
                (
                    "app.cconf",
                    "import \"shared/app_port.cinc\"\nexport_if_last({\"port\": APP_PORT})",
                ),
                (
                    "firewall.cconf",
                    "import \"shared/app_port.cinc\"\nexport_if_last({\"allow\": [APP_PORT]})",
                ),
            ]),
        )
        .unwrap();
        svc
    }

    #[test]
    fn commit_compiles_and_stores_artifacts() {
        let svc = service_with_port_example();
        assert_eq!(
            svc.artifact("app").unwrap().json.trim(),
            "{\n  \"port\": 8089\n}"
        );
        assert!(svc.artifact("firewall").unwrap().json.contains("8089"));
        // Sources and compiled JSON are both in git.
        assert!(svc.repo().exists("source/app.cconf"));
        assert!(svc.repo().exists("compiled/app.json"));
    }

    #[test]
    fn shared_module_change_recompiles_all_dependents_in_one_commit() {
        let mut svc = service_with_port_example();
        let report = svc
            .commit_source(
                "bob",
                "bump port",
                changes(&[("shared/app_port.cinc", "APP_PORT = 9090")]),
            )
            .unwrap();
        // Both dependents recompiled, atomically (single partition → one
        // commit id).
        let mut updated = report.updated_configs.clone();
        updated.sort();
        assert_eq!(updated, vec!["app", "firewall"]);
        assert_eq!(report.ripple_recompiles.len(), 2);
        assert_eq!(report.commits.len(), 1);
        assert!(svc.artifact("app").unwrap().json.contains("9090"));
        assert!(svc.artifact("firewall").unwrap().json.contains("9090"));
    }

    #[test]
    fn validator_failure_rejects_whole_commit() {
        let mut svc = ConfigeratorService::new();
        svc.commit_source(
            "alice",
            "seed",
            changes(&[
                (
                    "schemas/job.schema",
                    "struct Job { 1: string name 2: i64 mem = 64 }",
                ),
                (
                    "schemas/job.cvalidator",
                    "def validate(cfg):\n    require(cfg.mem >= 64, \"too small\")",
                ),
                (
                    "cache.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"c\" })",
                ),
            ]),
        )
        .unwrap();
        let heads = svc.repo().heads();
        // A schema-module edit that breaks the validator for the dependent
        // config rejects the commit entirely.
        let err = svc
            .commit_source(
                "bob",
                "bad",
                changes(&[(
                    "cache.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"c\", mem: 1 })",
                )]),
            )
            .unwrap_err();
        match err {
            ServiceError::CompileMany(failures) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].entry, "cache.cconf");
            }
            other => panic!("expected CompileMany, got {other:?}"),
        }
        assert_eq!(svc.repo().heads(), heads, "repository untouched");
        assert!(svc.artifact("cache").unwrap().json.contains("64"));
        assert_eq!(svc.metrics().counter(metrics::COMPILE_ERRORS), 1);
    }

    #[test]
    fn all_failures_in_a_batch_are_reported_sorted() {
        let mut svc = ConfigeratorService::new();
        svc.commit_source(
            "alice",
            "seed",
            changes(&[
                ("shared/n.cinc", "N = 1"),
                (
                    "b.cconf",
                    "import \"shared/n.cinc\"\nexport_if_last({\"n\": N})",
                ),
                (
                    "a.cconf",
                    "import \"shared/n.cinc\"\nexport_if_last({\"n\": N})",
                ),
            ]),
        )
        .unwrap();
        // Breaking the shared module breaks both dependents; every failure
        // is reported, ordered by entry path. (Verify off: this exercises
        // the compiler's own batch-failure path.)
        svc.set_compile_options(CompileOptions {
            verify: false,
            ..CompileOptions::default()
        });
        let err = svc
            .commit_source("bob", "break", changes(&[("shared/n.cinc", "N = ")]))
            .unwrap_err();
        match err {
            ServiceError::CompileMany(failures) => {
                let entries: Vec<&str> = failures.iter().map(|f| f.entry.as_str()).collect();
                assert_eq!(entries, vec!["a.cconf", "b.cconf"]);
            }
            other => panic!("expected CompileMany, got {other:?}"),
        }
        assert_eq!(svc.metrics().counter(metrics::COMPILE_ERRORS), 2);
    }

    #[test]
    fn verify_gate_rejects_dependency_break_with_repair_hint() {
        let mut svc = ConfigeratorService::new();
        svc.commit_source(
            "alice",
            "seed",
            changes(&[
                ("shared/n.cinc", "N = 1"),
                (
                    "b.cconf",
                    "import \"shared/n.cinc\"\nexport_if_last({\"n\": N})",
                ),
                (
                    "a.cconf",
                    "import \"shared/n.cinc\"\nexport_if_last({\"n\": N})",
                ),
            ]),
        )
        .unwrap();
        // Renaming the shared binding statically breaks both dependents:
        // the verifier rejects the commit before anything compiles and
        // names the blast radius in a repair hint.
        let err = svc
            .commit_source("bob", "rename", changes(&[("shared/n.cinc", "M = 1")]))
            .unwrap_err();
        match err {
            ServiceError::Verify(report) => {
                assert!(report.has_errors());
                let paths: Vec<&str> = report
                    .findings
                    .iter()
                    .filter(|f| f.severity == cdsl::Severity::Error)
                    .map(|f| f.path.as_str())
                    .collect();
                assert_eq!(paths, vec!["a.cconf", "b.cconf"]);
                assert!(report
                    .hints
                    .iter()
                    .any(|h| h.contains("breaks dependent config(s): a.cconf, b.cconf")));
            }
            other => panic!("expected Verify, got {other:?}"),
        }
        assert_eq!(svc.metrics().counter(metrics::VERIFY_REJECTED), 1);
        assert_eq!(svc.metrics().counter(metrics::VERIFY_REPAIR_SUGGESTED), 1);
        assert_eq!(svc.metrics().counter(metrics::COMPILE_ERRORS), 0);
        // The clean seed commit ticked the verify-clean counter.
        assert_eq!(svc.metrics().counter(metrics::VERIFY_CLEAN), 1);
    }

    #[test]
    fn verify_gate_rejects_schema_type_error_in_dead_branch() {
        let mut svc = ConfigeratorService::new();
        // The bad payload sits under a constant-false condition: the
        // compiler never executes it, but the verifier flags both the type
        // error and the dead export arm.
        let src = concat!(
            "schema \"schemas/job.schema\"\n",
            "if 1 > 2:\n",
            "    export_if_last(Job { name: \"j\", retries: \"many\" })\n",
            "else:\n",
            "    export_if_last(Job { name: \"j\", retries: 3 })\n",
        );
        let err = svc
            .commit_source(
                "bob",
                "sneaky",
                changes(&[
                    (
                        "schemas/job.schema",
                        "struct Job {\n  1: string name\n  2: i64 retries\n}",
                    ),
                    ("job.cconf", src),
                ]),
            )
            .unwrap_err();
        let ServiceError::Verify(report) = err else {
            panic!("expected Verify rejection");
        };
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == "schema-type" && f.message.contains("expected i64")));
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == "reachability" && f.message.contains("unreachable")));
    }

    #[test]
    fn unchanged_artifacts_are_not_rewritten() {
        let mut svc = service_with_port_example();
        // A comment-only change to the shared module recompiles dependents
        // but produces identical JSON → nothing to distribute.
        let report = svc
            .commit_source(
                "bob",
                "comment",
                changes(&[("shared/app_port.cinc", "# note\nAPP_PORT = 8089")]),
            )
            .unwrap();
        assert!(report.updated_configs.is_empty());
    }

    #[test]
    fn identical_rewrite_skips_by_fingerprint() {
        let mut svc = service_with_port_example();
        // Rewriting the shared module with byte-identical content leaves
        // every dependent's fingerprint unchanged → both are skipped, not
        // recompiled.
        let report = svc
            .commit_source(
                "tool",
                "no-op rewrite",
                changes(&[("shared/app_port.cinc", "APP_PORT = 8089")]),
            )
            .unwrap();
        assert_eq!(report.stats.candidates, 2);
        assert_eq!(report.stats.skipped, 2);
        assert_eq!(report.stats.compiled, 0);
        assert_eq!(
            report.skipped_entries,
            vec!["app.cconf".to_string(), "firewall.cconf".to_string()]
        );
        assert!(report.recompiled_entries.is_empty());
        assert!(report.updated_configs.is_empty());
        assert_eq!(svc.metrics().counter(metrics::FINGERPRINT_SKIPS), 2);
        // The artifacts are still intact and identical.
        assert!(svc.artifact("app").unwrap().json.contains("8089"));
    }

    #[test]
    fn legacy_options_never_skip() {
        let mut svc = ConfigeratorService::with_options(CompileOptions::legacy());
        svc.commit_source(
            "alice",
            "seed",
            changes(&[
                ("shared/app_port.cinc", "APP_PORT = 8089"),
                (
                    "app.cconf",
                    "import \"shared/app_port.cinc\"\nexport_if_last({\"port\": APP_PORT})",
                ),
            ]),
        )
        .unwrap();
        let report = svc
            .commit_source(
                "tool",
                "no-op rewrite",
                changes(&[("shared/app_port.cinc", "APP_PORT = 8089")]),
            )
            .unwrap();
        assert_eq!(report.stats.skipped, 0);
        assert_eq!(report.stats.compiled, 1);
        assert_eq!(report.stats.parse_hits, 0, "cache disabled");
    }

    #[test]
    fn parse_cache_shares_parses_within_and_across_commits() {
        let mut svc = service_with_port_example();
        let seed = svc.parse_cache_stats();
        // Both entries import the same module: compiling the seed commit
        // parsed it once and hit the cache once.
        assert!(seed.hits >= 1, "shared module parse reused");
        // An unrelated new entry importing the same (unchanged) module
        // hits the cache across commits.
        svc.commit_source(
            "carol",
            "new dependent",
            changes(&[(
                "lb.cconf",
                "import \"shared/app_port.cinc\"\nexport_if_last({\"lb\": APP_PORT})",
            )]),
        )
        .unwrap();
        let after = svc.parse_cache_stats().since(seed);
        assert!(after.hits >= 1, "unchanged module stayed warm");
    }

    #[test]
    fn creating_probed_validator_recompiles_dependents() {
        let mut svc = ConfigeratorService::new();
        svc.commit_source(
            "alice",
            "seed",
            changes(&[
                (
                    "schemas/job.schema",
                    "struct Job { 1: string name 2: i64 mem = 64 }",
                ),
                (
                    "cache.cconf",
                    "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"c\" })",
                ),
            ]),
        )
        .unwrap();
        // The compiler probed for the validator and found it absent; that
        // probe is indexed, so *creating* the file ripples.
        assert!(svc
            .dependency()
            .probes_of("cache.cconf")
            .contains(&"schemas/job.cvalidator".to_string()));
        let err = svc
            .commit_source(
                "bob",
                "add strict validator",
                changes(&[(
                    "schemas/job.cvalidator",
                    "def validate(cfg):\n    require(cfg.mem >= 128, \"too small\")",
                )]),
            )
            .unwrap_err();
        assert!(
            matches!(&err, ServiceError::CompileMany(f) if f[0].entry == "cache.cconf"),
            "new validator must re-check existing dependents, got {err:?}"
        );
    }

    #[test]
    fn parallel_and_serial_plans_agree() {
        let mut sources = vec![("shared/base.cinc".to_string(), "BASE = 10".to_string())];
        for i in 0..24 {
            sources.push((
                format!("entry{i:02}.cconf"),
                format!("import \"shared/base.cinc\"\nexport_if_last({{\"v\": BASE + {i}}})"),
            ));
        }
        let as_changes: BTreeMap<String, Option<String>> = sources
            .iter()
            .map(|(p, s)| (p.clone(), Some(s.clone())))
            .collect();
        let mut serial = ConfigeratorService::with_options(CompileOptions {
            workers: 1,
            ..CompileOptions::default()
        });
        let mut parallel = ConfigeratorService::with_options(CompileOptions {
            workers: 4,
            ..CompileOptions::default()
        });
        let a = serial
            .commit_source("alice", "seed", as_changes.clone())
            .unwrap();
        let b = parallel.commit_source("alice", "seed", as_changes).unwrap();
        assert_eq!(a.updated_configs, b.updated_configs);
        assert_eq!(a.recompiled_entries, b.recompiled_entries);
        for name in &a.updated_configs {
            assert_eq!(
                serial.artifact(name).unwrap().json,
                parallel.artifact(name).unwrap().json,
                "artifact {name} must be byte-identical across worker counts"
            );
        }
        // Errors also agree (collected and sorted, not first-wins).
        let bad = changes(&[("shared/base.cinc", "BASE = ")]);
        let ea = serial.commit_source("bob", "bad", bad.clone()).unwrap_err();
        let eb = parallel.commit_source("bob", "bad", bad).unwrap_err();
        assert_eq!(ea, eb);
    }

    #[test]
    fn deleting_entry_removes_artifact() {
        let mut svc = service_with_port_example();
        let mut ch = BTreeMap::new();
        ch.insert("firewall.cconf".to_string(), None);
        svc.commit_source("bob", "rm", ch).unwrap();
        assert!(svc.artifact("firewall").is_none());
        assert!(!svc.repo().exists("compiled/firewall.json"));
        assert!(!svc.repo().exists("source/firewall.cconf"));
        // The remaining dependent still recompiles on module changes.
        let report = svc
            .commit_source(
                "bob",
                "bump",
                changes(&[("shared/app_port.cinc", "APP_PORT = 7000")]),
            )
            .unwrap();
        assert_eq!(report.updated_configs, vec!["app"]);
    }

    #[test]
    fn raw_configs_distribute_verbatim() {
        let mut svc = ConfigeratorService::new();
        let report = svc
            .commit_raw("tool", "auto", "traffic/weights.json", "{\"w\": 3}")
            .unwrap();
        assert_eq!(report.updated_configs, vec!["traffic/weights.json"]);
        assert_eq!(
            svc.artifact("traffic/weights.json").unwrap().json,
            "{\"w\": 3}"
        );
    }

    #[test]
    fn forbidden_paths_rejected() {
        let mut svc = ConfigeratorService::new();
        let mut ch = BTreeMap::new();
        ch.insert("../etc/passwd".to_string(), Some("x".to_string()));
        // `classify` only admits source-tree paths.
        assert!(matches!(
            svc.commit_source("m", "x", ch),
            Err(ServiceError::ForbiddenPath(_))
        ));
    }

    #[test]
    fn dependency_service_bookkeeping() {
        let mut d = DependencyService::default();
        d.update("a.cconf", vec!["x.cinc".into(), "y.cinc".into()]);
        d.update("b.cconf", vec!["y.cinc".into()]);
        assert_eq!(d.dependents_of(["y.cinc"]).len(), 2);
        assert_eq!(d.dependents_of(["x.cinc"]).len(), 1);
        d.update("a.cconf", vec!["y.cinc".into()]);
        assert!(
            d.dependents_of(["x.cinc"]).is_empty(),
            "stale edges removed"
        );
        d.remove("b.cconf");
        assert_eq!(d.dependents_of(["y.cinc"]).len(), 1);
        assert_eq!(d.deps_of("a.cconf").unwrap(), &["y.cinc".to_string()]);
    }

    #[test]
    fn dependency_service_probe_edges() {
        let mut d = DependencyService::default();
        d.update_with_probes(
            "a.cconf",
            vec!["j.schema".into()],
            vec!["j.cvalidator".into()],
        );
        // Probe edges ripple like real dependencies…
        assert_eq!(d.dependents_of(["j.cvalidator"]).len(), 1);
        // …but are not reported as dependencies.
        assert_eq!(d.deps_of("a.cconf").unwrap(), &["j.schema".to_string()]);
        assert_eq!(d.probes_of("a.cconf"), &["j.cvalidator".to_string()]);
        // Replacing the record clears stale probe edges.
        d.update_with_probes("a.cconf", vec!["j.schema".into()], Vec::new());
        assert!(d.dependents_of(["j.cvalidator"]).is_empty());
        assert!(d.probes_of("a.cconf").is_empty());
    }

    #[test]
    fn preview_compiles_without_committing() {
        let svc = service_with_port_example();
        let out = svc.preview("app.cconf").unwrap();
        assert!(out.json.contains("8089"));
        assert!(svc.preview("missing.cconf").is_err());
    }

    #[test]
    fn partitioned_namespace_commits_concurrently_routable() {
        let mut svc = ConfigeratorService::new();
        svc.add_partition("source/feed/");
        let report = svc
            .commit_source(
                "alice",
                "two partitions",
                changes(&[
                    ("feed/rank.cconf", "export_if_last({\"model\": 3})"),
                    ("misc.cconf", "export_if_last({\"v\": 1})"),
                ]),
            )
            .unwrap();
        assert_eq!(report.commits.len(), 2, "one commit per partition");
        assert!(svc.artifact("feed/rank").is_some());
        assert!(svc.artifact("misc").is_some());
    }

    #[test]
    fn commit_metrics_recorded() {
        let svc = service_with_port_example();
        let m = svc.metrics();
        assert_eq!(m.counter(metrics::COMMITS), 1);
        assert_eq!(m.counter(metrics::ENTRIES_COMPILED), 2);
        assert_eq!(m.samples(metrics::COMPILE_US).len(), 2);
        assert!(m.counter(metrics::PARSE_CACHE_MISSES) >= 1);
        let text = m.export_prometheus();
        assert!(
            text.contains("configerator_entries_compiled") || text.contains("entries_compiled")
        );
    }
}
