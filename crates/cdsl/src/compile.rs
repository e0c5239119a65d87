//! The Configerator compiler: source → validated canonical JSON.
//!
//! Mirrors the paper's Figure 2 pipeline:
//!
//! 1. execute the entry config program (`.cconf`), which may import reusable
//!    modules (`.cinc`) and Thrift-style schemas;
//! 2. take the value passed to `export_if_last` as the compiled config;
//! 3. run every validator associated with the config's schema type — the
//!    compiler "automatically runs validators to verify invariants defined
//!    for configs" (§1); a failing validator fails the compile;
//! 4. emit canonical pretty JSON plus the dependency list extracted from the
//!    import graph.

use std::collections::BTreeMap;

use crate::cache::ParseCache;
use crate::error::{CdslError, ErrorKind, Result};
use crate::interp::{Interp, Limits, Loader};
use crate::module::ModuleStore;
use crate::value::Value;

/// Version of the compiler pipeline. Any change to compilation semantics
/// (language, schema handling, validator discovery, JSON emission) must
/// bump this: it is folded into incremental-compilation fingerprints so
/// stored artifacts from an older compiler are never reused.
pub const COMPILER_VERSION: u32 = 3;

/// The result of compiling one config program.
#[derive(Debug, Clone)]
pub struct CompiledConfig {
    /// Entry source path.
    pub path: String,
    /// Canonical pretty-printed JSON.
    pub json: String,
    /// The exported value.
    pub value: Value,
    /// Schema type of the exported value, when it is a struct.
    pub type_name: Option<String>,
    /// Every source path the config depends on (imports, schemas,
    /// validators), sorted. A change to any of these must trigger
    /// recompilation of this config.
    pub deps: Vec<String>,
    /// Validator files that ran (and passed).
    pub validators_run: Vec<String>,
    /// Paths the compiler probed but found absent (the conventional
    /// `<schema>.cvalidator` candidates). *Creating* one of these files
    /// must also trigger recompilation, even though it was never loaded.
    pub probed_absent: Vec<String>,
}

/// The CDSL compiler.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use cdsl::compile::Compiler;
///
/// let mut files = BTreeMap::new();
/// files.insert(
///     "job.schema".to_string(),
///     "struct Job { 1: string name 2: i64 memory_mb = 1024 }".to_string(),
/// );
/// files.insert(
///     "job.cvalidator".to_string(),
///     "def validate(cfg):\n    require(cfg.memory_mb >= 64, \"too little memory\")\n"
///         .to_string(),
/// );
/// files.insert(
///     "cache_job.cconf".to_string(),
///     "schema \"job.schema\"\nexport_if_last(Job { name: \"cache\" })\n".to_string(),
/// );
///
/// let compiler = Compiler::new(&files);
/// let out = compiler.compile("cache_job.cconf").unwrap();
/// assert_eq!(out.type_name.as_deref(), Some("Job"));
/// assert!(out.json.contains("\"memory_mb\": 1024"));
/// assert_eq!(out.deps, vec!["job.cvalidator", "job.schema"]);
/// ```
pub struct Compiler<'l> {
    loader: &'l dyn Loader,
    cache: Option<&'l ParseCache>,
    store: Option<&'l ModuleStore>,
    limits: Limits,
    extra_validators: BTreeMap<String, Vec<String>>,
}

impl<'l> Compiler<'l> {
    /// Creates a compiler reading sources from `loader`.
    pub fn new(loader: &'l dyn Loader) -> Compiler<'l> {
        Compiler {
            loader,
            cache: None,
            store: None,
            limits: Limits::default(),
            extra_validators: BTreeMap::new(),
        }
    }

    /// Overrides the execution budgets.
    pub fn with_limits(mut self, limits: Limits) -> Compiler<'l> {
        self.limits = limits;
        self
    }

    /// Shares parsed ASTs through `cache`: every source is lexed and
    /// parsed at most once per content, across all entries compiled
    /// against the cache (and across successive compile batches).
    pub fn with_cache(mut self, cache: &'l ParseCache) -> Compiler<'l> {
        self.cache = Some(cache);
        self
    }

    /// Shares evaluated modules through `store`: each imported module and
    /// validator is evaluated once for all entries compiled against the
    /// store instead of once per entry. Results are identical to compiling
    /// without it. The store is keyed by path, so it must only serve
    /// compiles over this loader's current contents.
    pub fn with_module_store(mut self, store: &'l ModuleStore) -> Compiler<'l> {
        self.store = Some(store);
        self
    }

    /// Registers an additional validator file for configs of `type_name`,
    /// beyond the `<schema>.cvalidator` convention.
    pub fn register_validator(&mut self, type_name: &str, path: &str) {
        self.extra_validators
            .entry(type_name.to_string())
            .or_default()
            .push(path.to_string());
    }

    /// Compiles the config program at `entry`.
    pub fn compile(&self, entry: &str) -> Result<CompiledConfig> {
        let mut interp = Interp::new(self.loader, self.limits);
        if let Some(cache) = self.cache {
            interp = interp.with_parse_cache(cache);
        }
        if let Some(store) = self.store {
            interp = interp.with_module_store(store);
        }
        interp.run_entry(entry)?;
        let value = interp.exported().cloned().ok_or_else(|| {
            CdslError::new(
                ErrorKind::Export(format!("{entry} exported no config")),
                entry,
                0,
            )
        })?;
        let type_name = match &value {
            Value::Struct(s) => Some(s.type_name.clone()),
            _ => None,
        };
        // Collect validators: the `<schema>.cvalidator` convention plus
        // explicit registrations for the exported type.
        let mut validators: Vec<String> = Vec::new();
        let mut probed_absent: Vec<String> = Vec::new();
        if let Some(tname) = &type_name {
            if let Some(origin) = interp.schemas().origin(tname) {
                let candidate = validator_path(origin);
                if self.loader.load(&candidate).is_some() {
                    validators.push(candidate);
                } else {
                    probed_absent.push(candidate);
                }
            }
            if let Some(extra) = self.extra_validators.get(tname) {
                for p in extra {
                    if !validators.contains(p) {
                        validators.push(p.clone());
                    }
                }
            }
        }
        let mut validators_run = Vec::new();
        for vpath in &validators {
            let module = interp.run_module(vpath)?;
            interp
                .call_global(module, "validate", std::slice::from_ref(&value))
                .map_err(|mut e| {
                    // Attribute validation failures to the validator file.
                    if e.location.path.is_empty() {
                        e.location.path = vpath.clone();
                    }
                    e
                })?;
            validators_run.push(vpath.clone());
        }
        let deps: Vec<String> = interp.deps().iter().cloned().collect();
        Ok(CompiledConfig {
            path: entry.to_string(),
            json: value.to_json_pretty(),
            value,
            type_name,
            deps,
            validators_run,
            probed_absent,
        })
    }
}

/// Maps a schema path to its conventional validator path:
/// `schemas/job.schema` → `schemas/job.cvalidator` (mirroring the paper's
/// `job.thrift` → `job.thrift-cvalidator` pairing).
pub fn validator_path(schema_path: &str) -> String {
    match schema_path.strip_suffix(".schema") {
        Some(stem) => format!("{stem}.cvalidator"),
        None => format!("{schema_path}.cvalidator"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(entries: &[(&str, &str)]) -> BTreeMap<String, String> {
        entries
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    const JOB_SCHEMA: &str = r#"
enum JobKind { BATCH = 0, SERVICE = 1 }
struct Job {
    1: string name
    2: optional i64 memory_mb = 1024
    3: list<i64> ports = 0
    4: JobKind kind = BATCH
}
"#;

    // Note: `ports = 0` above would be a schema bug; use a correct schema.
    const JOB_SCHEMA_OK: &str = r#"
enum JobKind { BATCH = 0, SERVICE = 1 }
struct Job {
    1: string name
    2: optional i64 memory_mb = 1024
    3: optional list<i64> ports
    4: JobKind kind = BATCH
}
"#;

    #[test]
    fn bad_schema_default_is_rejected_at_load() {
        let fs = files(&[
            ("job.schema", JOB_SCHEMA),
            (
                "main.cconf",
                "schema \"job.schema\"\nexport_if_last(Job { name: \"x\" })",
            ),
        ]);
        let e = Compiler::new(&fs).compile("main.cconf").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Schema(_)));
    }

    #[test]
    fn figure2_pipeline_end_to_end() {
        // The scheduler team provides the schema, the reusable module, and
        // the validator; the cache team writes a one-liner (§3.1).
        let fs = files(&[
            ("schemas/job.schema", JOB_SCHEMA_OK),
            (
                "schemas/job.cvalidator",
                r#"
def validate(cfg):
    require(len(cfg.name) > 0, "job name must be nonempty")
    require(cfg.memory_mb >= 64, "memory_mb too small")
"#,
            ),
            (
                "create_job.cinc",
                r#"
schema "schemas/job.schema"
def create_job(name, memory_mb=1024):
    return Job { name: name, memory_mb: memory_mb, kind: JobKind.SERVICE }
"#,
            ),
            (
                "cache_job.cconf",
                "import \"create_job.cinc\"\nexport_if_last(create_job(\"cache\"))",
            ),
        ]);
        let out = Compiler::new(&fs).compile("cache_job.cconf").unwrap();
        assert_eq!(out.type_name.as_deref(), Some("Job"));
        assert_eq!(out.validators_run, vec!["schemas/job.cvalidator"]);
        assert_eq!(
            out.deps,
            vec![
                "create_job.cinc",
                "schemas/job.cvalidator",
                "schemas/job.schema"
            ]
        );
        assert!(out.json.contains("\"name\": \"cache\""));
        assert!(out.json.contains("\"kind\": \"SERVICE\""));
    }

    #[test]
    fn failing_validator_fails_compile() {
        let fs = files(&[
            ("schemas/job.schema", JOB_SCHEMA_OK),
            (
                "schemas/job.cvalidator",
                "def validate(cfg):\n    require(cfg.memory_mb >= 64, \"memory_mb too small\")",
            ),
            (
                "tiny.cconf",
                "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"t\", memory_mb: 1 })",
            ),
        ]);
        let e = Compiler::new(&fs).compile("tiny.cconf").unwrap_err();
        assert!(e.is_validation());
        assert_eq!(e.message(), "memory_mb too small");
    }

    #[test]
    fn no_export_is_an_error() {
        let fs = files(&[("empty.cconf", "x = 1")]);
        let e = Compiler::new(&fs).compile("empty.cconf").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Export(_)));
    }

    #[test]
    fn registered_validator_runs_after_conventional_one() {
        let fs = files(&[
            ("schemas/job.schema", JOB_SCHEMA_OK),
            (
                "security.cvalidator",
                "def validate(cfg):\n    require(cfg.name != \"root\", \"name 'root' is reserved\")",
            ),
            (
                "bad.cconf",
                "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"root\" })",
            ),
        ]);
        let mut c = Compiler::new(&fs);
        c.register_validator("Job", "security.cvalidator");
        let e = c.compile("bad.cconf").unwrap_err();
        assert!(e.is_validation());
        assert!(e.message().contains("reserved"));
    }

    #[test]
    fn non_struct_exports_skip_validators() {
        let fs = files(&[("plain.cconf", "export_if_last({\"k\": 1})")]);
        let out = Compiler::new(&fs).compile("plain.cconf").unwrap();
        assert!(out.validators_run.is_empty());
        assert_eq!(out.type_name, None);
        assert!(out.deps.is_empty());
    }

    #[test]
    fn validator_appears_in_deps() {
        let fs = files(&[
            ("schemas/job.schema", JOB_SCHEMA_OK),
            (
                "schemas/job.cvalidator",
                "def validate(cfg):\n    require(true)",
            ),
            (
                "j.cconf",
                "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"x\" })",
            ),
        ]);
        let out = Compiler::new(&fs).compile("j.cconf").unwrap();
        assert!(out.deps.contains(&"schemas/job.cvalidator".to_string()));
    }

    #[test]
    fn validator_path_convention() {
        assert_eq!(validator_path("a/job.schema"), "a/job.cvalidator");
        assert_eq!(validator_path("weird.thrift"), "weird.thrift.cvalidator");
    }

    #[test]
    fn compile_is_deterministic() {
        let fs = files(&[
            ("schemas/job.schema", JOB_SCHEMA_OK),
            (
                "j.cconf",
                "schema \"schemas/job.schema\"\nexport_if_last(Job { name: \"x\", ports: [3, 1] })",
            ),
        ]);
        let a = Compiler::new(&fs).compile("j.cconf").unwrap();
        let b = Compiler::new(&fs).compile("j.cconf").unwrap();
        assert_eq!(a.json, b.json);
    }
}
