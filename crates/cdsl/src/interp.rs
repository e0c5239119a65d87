//! The CDSL evaluator.
//!
//! A config program is executed as a module graph: `import "path"` loads
//! and runs another module once, then binds its top-level names in the
//! importing scope (the paper's `import_python(path, "*")`) — by linking
//! the finished module as a lookup layer, not by copying (see
//! [`crate::module`]); `schema "path"` loads Thrift-style type definitions
//! (the paper's `import_thrift`). The set of loaded paths becomes the
//! config's dependency list — dependencies are *extracted from source
//! code*, never maintained by hand (§1, §3.1).
//!
//! With a [`ModuleStore`] attached, a module is evaluated once per source
//! view rather than once per importing compile: the first importer
//! evaluates it in isolation and publishes the frozen result, every other
//! importer links that. A compile with the store is indistinguishable from
//! one without — same values, dependencies, schema origins, step
//! accounting and errors — because a module is only shared when its
//! isolated evaluation succeeds, and only linked when replaying it provably
//! equals executing it here; otherwise it is executed here as if there
//! were no store.
//!
//! `export_if_last(value)` records the compiled config value only when the
//! call occurs in the entry module — imported modules can share the same
//! code path without exporting, exactly like the paper's reusable `.cinc`
//! modules.
//!
//! Execution is budgeted — steps, call depth, and how deeply evaluation
//! nests on the native stack (`MAX_FRAMES`) — so a buggy or hostile config
//! program can neither hang the compiler nor take its process down.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use crate::ast::{BinOp, Expr, ExprKind, Module, Stmt, StmtKind};
use crate::cache::ParseCache;
use crate::error::{CdslError, ErrorKind, Location, Result};
use crate::module::{Effect, FrozenModule, ModuleStore, Scope, Stored};
use crate::parser::parse;
use crate::schema::{parse_schema, SchemaSet, StructDef, TypeDef};
use crate::value::{int_result, FuncValue, StructValue, Value};

/// Provides source text for config programs and schemas by path.
///
/// Loaders are `Sync` so one loader (and one [`ParseCache`]) can serve all
/// worker threads of a parallel compile batch.
pub trait Loader: Sync {
    /// Returns the source at `path`, or `None` if it does not exist.
    fn load(&self, path: &str) -> Option<String>;
}

impl Loader for BTreeMap<String, String> {
    fn load(&self, path: &str) -> Option<String> {
        self.get(path).cloned()
    }
}

impl Loader for HashMap<String, String> {
    fn load(&self, path: &str) -> Option<String> {
        self.get(path).cloned()
    }
}

/// Execution budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of evaluation steps.
    pub max_steps: u64,
    /// Maximum function call depth.
    pub max_depth: u32,
    /// Maximum length of a `range()` result.
    pub max_range: i64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_steps: 2_000_000,
            // How far a config may recurse on purpose. It is not what keeps
            // the native stack in bounds: the frames one call level takes
            // grow with how deeply its expressions nest, and `MAX_FRAMES`
            // counts those.
            max_depth: 64,
            max_range: 1_000_000,
        }
    }
}

/// Deepest nesting of evaluator frames — an expression inside an
/// expression, a statement inside a block or a call's body, a module being
/// loaded — before evaluation stops with a budget error. Each is a few
/// native stack frames, so this, not [`Limits::max_depth`], is what bounds
/// native stack use whatever a config nests or recurses into. It is sized
/// by `tests/nesting.rs`, which runs the deepest programs it admits on a
/// 1 MiB stack in the debug build: half of what a spawned thread gets, with
/// frames several times the release build's. A constant rather than a
/// [`Limits`] field because it guards the process, not the config: no
/// caller has a reason to set it differently, and one that raised it would
/// have to know the frame sizes of the build it runs in.
const MAX_FRAMES: u32 = 140;

/// A function call's local bindings.
type Locals = HashMap<String, Value>;

/// A registered module: open while its statements run, frozen after.
enum Slot {
    Live { scope: Scope, effects: Vec<Effect> },
    Done(Arc<FrozenModule>),
}

impl Slot {
    fn open() -> Slot {
        Slot::Live {
            scope: Scope::default(),
            effects: Vec::new(),
        }
    }
}

/// Evaluates a standalone expression with no imports and the standard
/// builtins available. This powers the Sitevars shim, where a sitevar's
/// value "is a PHP expression" (§3.2) — here, a CDSL expression.
///
/// # Examples
///
/// ```
/// use cdsl::interp::eval_expression;
///
/// let v = eval_expression("{\"limit\": 2 * 50}").unwrap();
/// assert_eq!(v.to_json(), "{\"limit\":100}");
/// ```
pub fn eval_expression(src: &str) -> Result<Value> {
    let expr = crate::parser::parse_expr(src, "<expr>")?;
    let loader: BTreeMap<String, String> = BTreeMap::new();
    let mut interp = Interp::new(&loader, Limits::default());
    let module = interp.register(Arc::from("<expr>"), Slot::open());
    interp.eval(&expr, module, None)
}

enum Flow {
    Normal,
    Return(Value),
}

/// The interpreter: module registry, schema set, and execution state.
pub struct Interp<'l> {
    loader: &'l dyn Loader,
    cache: Option<&'l ParseCache>,
    store: Option<&'l ModuleStore>,
    limits: Limits,
    schemas: SchemaSet,
    modules: Vec<Slot>,
    module_paths: Vec<Arc<str>>,
    module_ids: HashMap<Arc<str>, usize>,
    loading: Vec<String>,
    /// Modules being evaluated in isolation further up the native stack
    /// (this interpreter is then one of their sub-interpreters): importing
    /// one of them is a cycle.
    isolating: Vec<String>,
    entry: Option<usize>,
    exported: Option<Value>,
    deps: BTreeSet<String>,
    steps: u64,
    /// Steps consumed by module loads since the innermost executing
    /// module started; the rest of its steps are its own.
    child_steps: u64,
    depth: u32,
    /// Evaluator frames open right now, against [`MAX_FRAMES`].
    frames: u32,
    /// The most `frames` has been since the innermost executing module
    /// started.
    peak_frames: u32,
}

impl<'l> Interp<'l> {
    /// Creates an interpreter over `loader`.
    pub fn new(loader: &'l dyn Loader, limits: Limits) -> Interp<'l> {
        Interp {
            loader,
            cache: None,
            store: None,
            limits,
            schemas: SchemaSet::new(),
            modules: Vec::new(),
            module_paths: Vec::new(),
            module_ids: HashMap::new(),
            loading: Vec::new(),
            isolating: Vec::new(),
            entry: None,
            exported: None,
            deps: BTreeSet::new(),
            steps: 0,
            child_steps: 0,
            depth: 0,
            frames: 0,
            peak_frames: 0,
        }
    }

    /// Reads parsed ASTs through `cache` instead of re-parsing every
    /// loaded source. The cache may be shared across interpreters and
    /// threads.
    pub fn with_parse_cache(mut self, cache: &'l ParseCache) -> Interp<'l> {
        self.cache = Some(cache);
        self
    }

    /// Shares evaluated modules through `store`: an imported module (or
    /// validator) is evaluated by the first interpreter that needs it and
    /// linked by the rest. `store` must only ever see this loader's
    /// current contents. Ignored when the store's limits differ from this
    /// interpreter's.
    pub fn with_module_store(mut self, store: &'l ModuleStore) -> Interp<'l> {
        self.store = (store.limits() == self.limits).then_some(store);
        self
    }

    /// Executes `path` as the entry module. Returns the entry module index.
    pub fn run_entry(&mut self, path: &str) -> Result<usize> {
        let idx = self.load_module(path, true)?;
        Ok(idx)
    }

    /// Executes `path` as a non-entry module (its exports are ignored).
    /// Used to run validator files.
    pub fn run_module(&mut self, path: &str) -> Result<usize> {
        self.load_module(path, false)
    }

    /// The value exported by the entry module, if any.
    pub fn exported(&self) -> Option<&Value> {
        self.exported.as_ref()
    }

    /// All paths loaded besides the entry (imports, schemas): the config's
    /// dependency list.
    pub fn deps(&self) -> &BTreeSet<String> {
        &self.deps
    }

    /// The accumulated schema set.
    pub fn schemas(&self) -> &SchemaSet {
        &self.schemas
    }

    /// Looks up a top-level binding of a module.
    pub fn global(&self, module: usize, name: &str) -> Option<&Value> {
        self.modules.get(module).and_then(|m| scope_of(m).get(name))
    }

    /// Calls the function bound to `name` in `module` with positional
    /// `args`. Used by the compiler to invoke validators. Arguments are
    /// taken by reference: binding a parameter performs a shallow
    /// (`Arc`-bump) clone, so invoking many validators against one large
    /// config value never copies the value itself.
    pub fn call_global(&mut self, module: usize, name: &str, args: &[Value]) -> Result<Value> {
        let f = match self.global(module, name) {
            Some(Value::Func(f)) => f.clone(),
            Some(other) => {
                return Err(CdslError::nowhere(ErrorKind::Eval(format!(
                    "{name} is not a function (found {})",
                    other.type_name()
                ))))
            }
            None => {
                return Err(CdslError::nowhere(ErrorKind::Eval(format!(
                    "no function named {name}"
                ))))
            }
        };
        self.call_func(&f, args.to_vec(), Vec::new(), module, 0)
    }

    fn register(&mut self, path: Arc<str>, slot: Slot) -> usize {
        let idx = self.modules.len();
        self.modules.push(slot);
        self.module_paths.push(Arc::clone(&path));
        self.module_ids.insert(path, idx);
        idx
    }

    fn load_module(&mut self, path: &str, as_entry: bool) -> Result<usize> {
        // A module still on a loading stack is mid-execution: importing it
        // again is a cycle. This must be checked before the module-id
        // table, which registers modules eagerly.
        let mut in_progress = self.isolating.iter().chain(&self.loading);
        if in_progress.any(|p| p == path) {
            return Err(CdslError::nowhere(ErrorKind::ImportCycle(format!(
                "{} -> {path}",
                self.loading.join(" -> ")
            ))));
        }
        if let Some(&idx) = self.module_ids.get(path) {
            return Ok(idx);
        }
        let before = self.steps;
        let idx = self.load_unregistered(path, as_entry)?;
        self.child_steps += self.steps - before;
        Ok(idx)
    }

    /// First load of `path` here: link the shared evaluation if there is
    /// (or can be) one, else execute the module in this interpreter.
    fn load_unregistered(&mut self, path: &str, as_entry: bool) -> Result<usize> {
        let store = self.store.filter(|_| !as_entry);
        let known = store.and_then(|s| s.get(path));
        if let Some(Stored::Shared(module)) = &known {
            if let Some(idx) = self.link(module) {
                return Ok(idx);
            }
        }
        let src = self
            .loader
            .load(path)
            .ok_or_else(|| CdslError::nowhere(ErrorKind::MissingSource(path.to_string())))?;
        let ast: Arc<Module> = match self.cache {
            Some(cache) => cache.module(&src, path)?,
            None => Arc::new(parse(&src, path)?),
        };
        drop(src);
        if let (Some(store), None) = (store, known) {
            let outcome = match self.isolate(path, &ast) {
                Some(module) => Stored::Shared(module),
                None => Stored::NeedsContext,
            };
            if let Stored::Shared(module) = store.publish(path, outcome) {
                if let Some(idx) = self.link(&module) {
                    return Ok(idx);
                }
            }
        }
        self.execute(path, &ast, as_entry)
    }

    /// Executes a module's statements here and freezes its scope.
    fn execute(&mut self, path: &str, ast: &Module, as_entry: bool) -> Result<usize> {
        let idx = self.register(Arc::from(path), Slot::open());
        if as_entry {
            self.entry = Some(idx);
        } else if self.entry.is_some() {
            self.deps.insert(path.to_string());
        }
        self.loading.push(path.to_string());
        self.frames += 1;
        let outer_peak_frames = std::mem::replace(&mut self.peak_frames, self.frames);
        let start = self.steps;
        let outer_child_steps = std::mem::take(&mut self.child_steps);
        let result = self.exec_stmts(&ast.stmts, idx, None);
        self.frames -= 1;
        self.loading.pop();
        result?;
        let own_steps = self.steps - start - self.child_steps;
        self.child_steps = outer_child_steps;
        let frames = self.peak_frames - self.frames;
        self.peak_frames = self.peak_frames.max(outer_peak_frames);
        let Slot::Live { scope, effects } = std::mem::replace(&mut self.modules[idx], Slot::open())
        else {
            unreachable!("a module is frozen once, when its statements finish");
        };
        self.modules[idx] = Slot::Done(Arc::new(FrozenModule {
            path: Arc::clone(&self.module_paths[idx]),
            scope,
            effects,
            own_steps,
            frames,
        }));
        Ok(idx)
    }

    /// Evaluates a module from nothing — no schemas loaded, no modules
    /// registered, a full budget — so the result depends on its source
    /// closure alone and any importer may link it. `None` if that fails
    /// for any reason.
    fn isolate(&self, path: &str, ast: &Module) -> Option<Arc<FrozenModule>> {
        let mut sub = Interp::new(self.loader, self.limits);
        sub.cache = self.cache;
        sub.store = self.store;
        sub.isolating = self.isolating.clone();
        sub.isolating.push(path.to_string());
        // It starts on top of this interpreter's native stack.
        sub.frames = self.frames;
        let idx = sub.execute(path, ast, false).ok()?;
        Some(Arc::clone(sub.frozen(idx)))
    }

    /// Links a module evaluated elsewhere: registers it and every module
    /// it imported that this interpreter has not met, replays their schema
    /// loads and dependency edges in evaluation order and charges their
    /// steps — what executing it here would have done. Declines (`None`)
    /// unless that equivalence holds: no path it brings is already
    /// registered here as a different evaluation, its schemas merge into
    /// ours without conflict, and its steps and frames fit the remaining
    /// budgets.
    fn link(&mut self, module: &Arc<FrozenModule>) -> Option<usize> {
        let mut steps = self.steps;
        let peak_frames = self.frames + module.frames;
        if !self.can_link(module, &mut Vec::new(), &mut steps)
            || steps > self.limits.max_steps
            || peak_frames > MAX_FRAMES
        {
            return None;
        }
        self.peak_frames = self.peak_frames.max(peak_frames);
        Some(self.replay(module))
    }

    fn can_link<'m>(
        &self,
        module: &'m Arc<FrozenModule>,
        fresh: &mut Vec<&'m Arc<FrozenModule>>,
        steps: &mut u64,
    ) -> bool {
        if let Some(&idx) = self.module_ids.get(&*module.path) {
            return matches!(&self.modules[idx], Slot::Done(m) if Arc::ptr_eq(m, module));
        }
        if fresh.iter().any(|m| Arc::ptr_eq(m, module)) {
            return true;
        }
        fresh.push(module);
        *steps += module.own_steps;
        module.effects.iter().all(|effect| match effect {
            Effect::Import(m) => self.can_link(m, fresh, steps),
            Effect::Schema { defs, .. } => self.schemas.accepts(defs),
        })
    }

    fn replay(&mut self, module: &Arc<FrozenModule>) -> usize {
        if let Some(&idx) = self.module_ids.get(&*module.path) {
            return idx;
        }
        let idx = self.register(Arc::clone(&module.path), Slot::Done(Arc::clone(module)));
        if self.entry.is_some() {
            self.deps.insert(module.path.to_string());
        }
        self.steps += module.own_steps;
        for effect in &module.effects {
            match effect {
                Effect::Import(m) => {
                    self.replay(m);
                }
                Effect::Schema { path, defs } => {
                    self.schemas
                        .load_defs(defs, path)
                        .expect("can_link checked the definitions merge");
                    self.deps.insert(path.clone());
                }
            }
        }
        idx
    }

    fn frozen(&self, module: usize) -> &Arc<FrozenModule> {
        match &self.modules[module] {
            Slot::Done(m) => m,
            Slot::Live { .. } => unreachable!("a loaded module has finished executing"),
        }
    }

    /// The scope and effect log of the module whose top level is running.
    fn live(&mut self, module: usize) -> (&mut Scope, &mut Vec<Effect>) {
        match &mut self.modules[module] {
            Slot::Live { scope, effects } => (scope, effects),
            Slot::Done(_) => unreachable!("top-level statements run in an open module"),
        }
    }

    fn error(&self, module: usize, line: u32, kind: ErrorKind) -> CdslError {
        CdslError::new(kind, &self.module_paths[module], line)
    }

    /// Places what an operator in [`crate::value`] objected to.
    fn eval_error(&self, module: usize, line: u32) -> impl FnOnce(String) -> CdslError + '_ {
        move |m| self.error(module, line, ErrorKind::Eval(m))
    }

    /// Opens an evaluator frame for the statement or expression at `line`
    /// and charges it one step; the caller closes the frame.
    fn charge(&mut self, module: usize, line: u32) -> Result<()> {
        self.steps += 1;
        self.frames += 1;
        self.peak_frames = self.peak_frames.max(self.frames);
        let over = if self.steps > self.limits.max_steps {
            format!("exceeded {} steps", self.limits.max_steps)
        } else if self.frames > MAX_FRAMES {
            format!("evaluation nested deeper than {MAX_FRAMES} frames")
        } else {
            return Ok(());
        };
        self.frames -= 1;
        Err(self.error(module, line, ErrorKind::Budget(over)))
    }

    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        module: usize,
        mut locals: Option<&mut Locals>,
    ) -> Result<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt, module, locals.as_deref_mut())? {
                Flow::Normal => {}
                flow @ Flow::Return(_) => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        module: usize,
        locals: Option<&mut Locals>,
    ) -> Result<Flow> {
        self.charge(module, stmt.line)?;
        let flow = self.exec_stmt_kind(stmt, module, locals);
        self.frames -= 1;
        flow
    }

    fn exec_stmt_kind(
        &mut self,
        stmt: &Stmt,
        module: usize,
        mut locals: Option<&mut Locals>,
    ) -> Result<Flow> {
        let top_level_only = |what: &str| {
            let kind = ErrorKind::Eval(format!("{what} is only allowed at module top level"));
            self.error(module, stmt.line, kind)
        };
        match &stmt.kind {
            StmtKind::Assign { name, value } => {
                let v = self.eval(value, module, locals.as_deref())?;
                match locals {
                    Some(l) => {
                        l.insert(name.clone(), v);
                    }
                    None => self.live(module).0.insert(name.clone(), v),
                }
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e, module, locals.as_deref())?;
                Ok(Flow::Normal)
            }
            StmtKind::Import(_) if locals.is_some() => Err(top_level_only("import")),
            StmtKind::Import(target) => self.exec_import(target, module),
            StmtKind::Schema(_) if locals.is_some() => Err(top_level_only("schema")),
            StmtKind::Schema(target) => self.exec_schema(target, module, stmt.line),
            StmtKind::Def(def) => {
                if locals.is_some() {
                    let kind =
                        ErrorKind::Eval("nested function definitions are not supported".into());
                    return Err(self.error(module, stmt.line, kind));
                }
                let f = Value::Func(Arc::new(FuncValue {
                    def: Arc::clone(def),
                    module: Arc::clone(&self.module_paths[module]),
                }));
                self.live(module).0.insert(def.name.clone(), f);
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                if locals.is_none() {
                    let kind = ErrorKind::Eval("return outside function".into());
                    return Err(self.error(module, stmt.line, kind));
                }
                let v = match value {
                    Some(e) => self.eval(e, module, locals.as_deref())?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval(cond, module, locals.as_deref())?;
                if c.truthy() {
                    self.exec_stmts(then, module, locals)
                } else {
                    self.exec_stmts(otherwise, module, locals)
                }
            }
            StmtKind::For { var, iter, body } => {
                let it = self.eval(iter, module, locals.as_deref())?;
                let items: Vec<Value> = match it {
                    Value::List(l) => l.to_vec(),
                    Value::Dict(d) => d.keys().map(Value::str).collect(),
                    other => {
                        let kind =
                            ErrorKind::Eval(format!("cannot iterate a {}", other.type_name()));
                        return Err(self.error(module, stmt.line, kind));
                    }
                };
                for item in items {
                    match locals.as_deref_mut() {
                        Some(l) => {
                            l.insert(var.clone(), item);
                        }
                        None => self.live(module).0.insert(var.clone(), item),
                    }
                    match self.exec_stmts(body, module, locals.as_deref_mut())? {
                        Flow::Normal => {}
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_import(&mut self, target: &str, module: usize) -> Result<Flow> {
        let dep = self.load_module(target, false)?;
        // Bind the imported module's top-level names, like the paper's
        // `import_python(path, "*")`.
        let dep = Arc::clone(self.frozen(dep));
        let (scope, effects) = self.live(module);
        scope.link(&dep);
        effects.push(Effect::Import(dep));
        Ok(Flow::Normal)
    }

    fn exec_schema(&mut self, target: &str, module: usize, line: u32) -> Result<Flow> {
        let src = self.loader.load(target).ok_or_else(|| {
            self.error(module, line, ErrorKind::MissingSource(target.to_string()))
        })?;
        let defs = match self.cache {
            Some(cache) => cache.schema(&src, target)?,
            None => Arc::new(parse_schema(&src, target)?),
        };
        self.schemas.load_defs(&defs, target)?;
        // A schema file is always a dependency of the config.
        self.deps.insert(target.to_string());
        self.live(module).1.push(Effect::Schema {
            path: target.to_string(),
            defs,
        });
        Ok(Flow::Normal)
    }

    fn lookup(&self, name: &str, module: usize, locals: Option<&Locals>) -> Option<Value> {
        if let Some(v) = locals.and_then(|l| l.get(name)) {
            return Some(v.clone());
        }
        if let Some(v) = scope_of(&self.modules[module]).get(name) {
            return Some(v.clone());
        }
        BUILTINS
            .iter()
            .find(|b| **b == name)
            .map(|b| Value::Builtin(b))
    }

    fn eval(&mut self, expr: &Expr, module: usize, locals: Option<&Locals>) -> Result<Value> {
        self.charge(module, expr.line)?;
        let value = self.eval_kind(expr, module, locals);
        self.frames -= 1;
        value
    }

    fn eval_kind(&mut self, expr: &Expr, module: usize, locals: Option<&Locals>) -> Result<Value> {
        match &expr.kind {
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::str(s)),
            ExprKind::Name(n) => self.lookup(n, module, locals).ok_or_else(|| {
                self.error(
                    module,
                    expr.line,
                    ErrorKind::Eval(format!("undefined name: {n}")),
                )
            }),
            ExprKind::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e, module, locals)?);
                }
                Ok(Value::list(out))
            }
            ExprKind::Dict(items) => self.eval_dict(items, expr.line, module, locals),
            ExprKind::Struct { name, fields } => {
                let mut given: Vec<(String, Value)> = Vec::with_capacity(fields.len());
                for (fname, fexpr) in fields {
                    given.push((fname.clone(), self.eval(fexpr, module, locals)?));
                }
                self.build_struct(name, given, module, expr.line)
            }
            ExprKind::Bin(op, lhs, rhs) => self.eval_bin(*op, lhs, rhs, module, locals),
            ExprKind::Un(op, inner) => {
                let v = self.eval(inner, module, locals)?;
                v.unary(*op).map_err(self.eval_error(module, expr.line))
            }
            ExprKind::Cond {
                then,
                cond,
                otherwise,
            } => {
                if self.eval(cond, module, locals)?.truthy() {
                    self.eval(then, module, locals)
                } else {
                    self.eval(otherwise, module, locals)
                }
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(base, module, locals)?;
                let i = self.eval(idx, module, locals)?;
                b.index(&i).map_err(self.eval_error(module, expr.line))
            }
            ExprKind::Attr(base, attr) => {
                // `EnumType.VARIANT` when the base name is an unbound enum.
                if let ExprKind::Name(n) = &base.kind {
                    if self.lookup(n, module, locals).is_none() {
                        if let Some(e) = self.schemas.get_enum(n) {
                            return e.variant(attr).ok_or_else(|| {
                                self.error(
                                    module,
                                    expr.line,
                                    ErrorKind::Eval(format!("enum {n} has no variant {attr}")),
                                )
                            });
                        }
                    }
                }
                let b = self.eval(base, module, locals)?;
                b.attr(attr).map_err(self.eval_error(module, expr.line))
            }
            ExprKind::Call {
                callee,
                args,
                kwargs,
            } => self.eval_call(callee, args, kwargs, expr.line, module, locals),
        }
    }

    fn eval_dict(
        &mut self,
        items: &[(Expr, Expr)],
        line: u32,
        module: usize,
        locals: Option<&Locals>,
    ) -> Result<Value> {
        let mut map = BTreeMap::new();
        for (k, v) in items {
            let key = match self.eval(k, module, locals)? {
                Value::Str(s) => s.to_string(),
                other => {
                    let m = format!("dict keys must be strings, found {}", other.type_name());
                    return Err(self.error(module, line, ErrorKind::Eval(m)));
                }
            };
            let value = self.eval(v, module, locals)?;
            map.insert(key, value);
        }
        Ok(Value::dict(map))
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        line: u32,
        module: usize,
        locals: Option<&Locals>,
    ) -> Result<Value> {
        let f = self.eval(callee, module, locals)?;
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a, module, locals)?);
        }
        let mut kwargv = Vec::with_capacity(kwargs.len());
        for (k, v) in kwargs {
            kwargv.push((k.clone(), self.eval(v, module, locals)?));
        }
        match f {
            Value::Func(func) => self.call_func(&func, argv, kwargv, module, line),
            // Whatever a builtin rejects, it rejects at the call.
            Value::Builtin(name) => {
                self.call_builtin(name, argv, kwargv, module)
                    .map_err(|mut e| {
                        e.location = Location {
                            path: self.module_paths[module].to_string(),
                            line,
                        };
                        e
                    })
            }
            other => Err(self.error(
                module,
                line,
                ErrorKind::Eval(format!("cannot call a {}", other.type_name())),
            )),
        }
    }

    fn call_func(
        &mut self,
        f: &FuncValue,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
        caller: usize,
        line: u32,
    ) -> Result<Value> {
        let Some(&home) = self.module_ids.get(&*f.module) else {
            let kind = ErrorKind::Eval(format!(
                "{} was defined in {}, which is not loaded here",
                f.def.name, f.module
            ));
            return Err(self.error(caller, line, kind));
        };
        if self.depth >= self.limits.max_depth {
            let kind = ErrorKind::Budget(format!(
                "call depth exceeded {} in {}",
                self.limits.max_depth, f.def.name
            ));
            return Err(self.error(caller, line, kind));
        }
        self.depth += 1;
        // Binding is a function of its own so that what it needs on the
        // native stack is gone again before the body runs.
        let result = match self.bind_args(f, home, args, kwargs, caller, line) {
            Ok(mut locals) => self.exec_stmts(&f.def.body, home, Some(&mut locals)),
            Err(e) => Err(e),
        };
        self.depth -= 1;
        match result? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }

    /// Binds a call's arguments to `f`'s parameters, evaluating the
    /// defaults of those not given in `f`'s home module.
    fn bind_args(
        &mut self,
        f: &FuncValue,
        home: usize,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
        caller: usize,
        line: u32,
    ) -> Result<Locals> {
        let name = &f.def.name;
        let mut locals = Locals::new();
        if args.len() > f.def.params.len() {
            let (most, got) = (f.def.params.len(), args.len());
            let m = format!("{name} takes at most {most} arguments, got {got}");
            return Err(self.error(caller, line, ErrorKind::Eval(m)));
        }
        for (i, a) in args.into_iter().enumerate() {
            locals.insert(f.def.params[i].name.clone(), a);
        }
        for (k, v) in kwargs {
            if !f.def.params.iter().any(|p| p.name == k) {
                let m = format!("{name} has no parameter {k}");
                return Err(self.error(caller, line, ErrorKind::Eval(m)));
            }
            if locals.contains_key(&k) {
                let m = format!("duplicate value for parameter {k} of {name}");
                return Err(self.error(caller, line, ErrorKind::Eval(m)));
            }
            locals.insert(k, v);
        }
        for p in &f.def.params {
            if !locals.contains_key(&p.name) {
                let Some(default) = &p.default else {
                    let m = format!("missing argument {} for {name}", p.name);
                    return Err(self.error(caller, line, ErrorKind::Eval(m)));
                };
                let v = self.eval(default, home, None)?;
                locals.insert(p.name.clone(), v);
            }
        }
        Ok(locals)
    }

    fn eval_bin(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        module: usize,
        locals: Option<&Locals>,
    ) -> Result<Value> {
        let l = self.eval(lhs, module, locals)?;
        // `and`/`or` leave the right operand unevaluated when the left
        // decides.
        if matches!((op, l.truthy()), (BinOp::And, false) | (BinOp::Or, true)) {
            return Ok(l);
        }
        let r = self.eval(rhs, module, locals)?;
        l.binary(op, &r).map_err(self.eval_error(module, lhs.line))
    }

    /// Constructs a schema struct: type-checks fields, fills defaults,
    /// rejects unknown or missing fields.
    fn build_struct(
        &self,
        name: &str,
        given: Vec<(String, Value)>,
        module: usize,
        line: u32,
    ) -> Result<Value> {
        let err = |m: String| self.error(module, line, ErrorKind::Type(m));
        let def: &StructDef = match self.schemas.get(name) {
            Some(TypeDef::Struct(s)) => s,
            Some(TypeDef::Enum(_)) => return Err(err(format!("{name} is an enum, not a struct"))),
            None => return Err(err(format!("unknown struct type: {name}"))),
        };
        for (fname, _) in &given {
            if !def.fields.iter().any(|f| f.name == *fname) {
                return Err(err(format!("struct {name} has no field {fname}")));
            }
        }
        let mut fields = Vec::with_capacity(def.fields.len());
        for fdef in &def.fields {
            let provided = given.iter().find(|(n, _)| *n == fdef.name).map(|(_, v)| v);
            let value = match provided.or(fdef.default.as_ref()) {
                Some(v) => self
                    .schemas
                    .coerce(v, &fdef.ty)
                    .map_err(|m| err(format!("field {name}.{}: {m}", fdef.name)))?,
                None if fdef.optional => Value::Null,
                None => {
                    return Err(err(format!(
                        "missing required field {} of struct {name}",
                        fdef.name
                    )))
                }
            };
            fields.push((fdef.name.clone(), value));
        }
        Ok(Value::Struct(Arc::new(StructValue {
            type_name: name.to_string(),
            fields,
        })))
    }

    fn call_builtin(
        &mut self,
        name: &str,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
        module: usize,
    ) -> Result<Value> {
        let err = |m: String| CdslError::nowhere(ErrorKind::Eval(m));
        if !kwargs.is_empty() {
            return Err(err(format!("builtin {name} takes no keyword arguments")));
        }
        let arity = |want: std::ops::RangeInclusive<usize>| -> Result<()> {
            if want.contains(&args.len()) {
                Ok(())
            } else {
                Err(err(format!(
                    "builtin {name} expects {}..={} arguments, got {}",
                    want.start(),
                    want.end(),
                    args.len()
                )))
            }
        };
        match name {
            "export_if_last" => {
                arity(1..=1)?;
                if self.entry == Some(module) {
                    if self.exported.is_some() {
                        return Err(CdslError::nowhere(ErrorKind::Export(
                            "config exported more than once".into(),
                        )));
                    }
                    self.exported = Some(args.into_iter().next().expect("arity"));
                }
                Ok(Value::Null)
            }
            "require" => {
                arity(1..=2)?;
                let mut it = args.into_iter();
                let cond = it.next().expect("arity");
                let msg = it
                    .next()
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "requirement failed".to_string());
                if cond.truthy() {
                    Ok(Value::Null)
                } else {
                    Err(CdslError::nowhere(ErrorKind::Validation(msg)))
                }
            }
            "fail" => {
                arity(1..=1)?;
                Err(err(args[0].to_string()))
            }
            "len" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    Value::List(l) => Ok(Value::Int(l.len() as i64)),
                    Value::Dict(d) => Ok(Value::Int(d.len() as i64)),
                    Value::Struct(s) => Ok(Value::Int(s.fields.len() as i64)),
                    other => Err(err(format!("len of {}", other.type_name()))),
                }
            }
            "str" => {
                arity(1..=1)?;
                Ok(Value::str(args[0].to_string()))
            }
            "int" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    Value::Float(f) => Ok(Value::Int(*f as i64)),
                    Value::Bool(b) => Ok(Value::Int(*b as i64)),
                    Value::Str(s) => s
                        .trim()
                        .parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| err(format!("cannot parse {s:?} as int"))),
                    Value::Enum(e) => Ok(Value::Int(e.number)),
                    other => Err(err(format!("int of {}", other.type_name()))),
                }
            }
            "float" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Int(i) => Ok(Value::Float(*i as f64)),
                    Value::Float(f) => Ok(Value::Float(*f)),
                    Value::Str(s) => s
                        .trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| err(format!("cannot parse {s:?} as float"))),
                    other => Err(err(format!("float of {}", other.type_name()))),
                }
            }
            "range" => {
                arity(1..=2)?;
                let (lo, hi) = match (args.first(), args.get(1)) {
                    (Some(Value::Int(n)), None) => (0, *n),
                    (Some(Value::Int(a)), Some(Value::Int(b))) => (*a, *b),
                    _ => return Err(err("range expects integer arguments".into())),
                };
                // A width that does not fit an i64 is too large, not negative.
                let fits = |w: i64| w <= self.limits.max_range;
                if hi > lo && !hi.checked_sub(lo).is_some_and(fits) {
                    return Err(CdslError::nowhere(ErrorKind::Budget(format!(
                        "range too large: {lo}..{hi}"
                    ))));
                }
                Ok(Value::list((lo..hi).map(Value::Int).collect()))
            }
            "min" | "max" => {
                let items: Vec<Value> = if args.len() == 1 {
                    match &args[0] {
                        Value::List(l) => l.to_vec(),
                        _ => args.clone(),
                    }
                } else {
                    args.clone()
                };
                if items.is_empty() {
                    return Err(err(format!("{name} of empty sequence")));
                }
                let mut best = items[0].clone();
                for v in &items[1..] {
                    let swap = match (v.num(), best.num()) {
                        (Some(a), Some(b)) => {
                            if name == "min" {
                                a < b
                            } else {
                                a > b
                            }
                        }
                        _ => match (v, &best) {
                            (Value::Str(a), Value::Str(b)) => {
                                if name == "min" {
                                    a < b
                                } else {
                                    a > b
                                }
                            }
                            _ => return Err(err(format!("{name} of mixed types"))),
                        },
                    };
                    if swap {
                        best = v.clone();
                    }
                }
                Ok(best)
            }
            "abs" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Int(i) => int_result(i.checked_abs(), "abs").map_err(err),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    other => Err(err(format!("abs of {}", other.type_name()))),
                }
            }
            "sum" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::List(l) => {
                        let mut acc_i: i64 = 0;
                        let mut acc_f: f64 = 0.0;
                        let mut is_float = false;
                        for v in l.iter() {
                            match v {
                                Value::Int(i) => {
                                    acc_i = acc_i
                                        .checked_add(*i)
                                        .ok_or_else(|| err("integer overflow in sum".into()))?
                                }
                                Value::Float(f) => {
                                    is_float = true;
                                    acc_f += f;
                                }
                                other => {
                                    return Err(err(format!(
                                        "sum of list containing {}",
                                        other.type_name()
                                    )))
                                }
                            }
                        }
                        if is_float {
                            Ok(Value::Float(acc_f + acc_i as f64))
                        } else {
                            Ok(Value::Int(acc_i))
                        }
                    }
                    other => Err(err(format!("sum of {}", other.type_name()))),
                }
            }
            "sorted" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::List(l) => {
                        let mut items = l.to_vec();
                        let mut bad = None;
                        items.sort_by(|a, b| match (a.num(), b.num()) {
                            (Some(x), Some(y)) => {
                                x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
                            }
                            _ => match (a, b) {
                                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                                _ => {
                                    bad = Some(());
                                    std::cmp::Ordering::Equal
                                }
                            },
                        });
                        if bad.is_some() {
                            return Err(err("sorted of mixed types".into()));
                        }
                        Ok(Value::list(items))
                    }
                    other => Err(err(format!("sorted of {}", other.type_name()))),
                }
            }
            "keys" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Dict(d) => Ok(Value::list(d.keys().map(Value::str).collect())),
                    Value::Struct(s) => Ok(Value::list(
                        s.fields.iter().map(|(k, _)| Value::str(k)).collect(),
                    )),
                    other => Err(err(format!("keys of {}", other.type_name()))),
                }
            }
            "values" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Dict(d) => Ok(Value::list(d.values().cloned().collect())),
                    Value::Struct(s) => Ok(Value::list(
                        s.fields.iter().map(|(_, v)| v.clone()).collect(),
                    )),
                    other => Err(err(format!("values of {}", other.type_name()))),
                }
            }
            "append" => {
                arity(2..=2)?;
                match &args[0] {
                    Value::List(l) => {
                        let mut out = l.to_vec();
                        out.push(args[1].clone());
                        Ok(Value::list(out))
                    }
                    other => Err(err(format!("append to {}", other.type_name()))),
                }
            }
            "merge" => {
                arity(2..=2)?;
                match (&args[0], &args[1]) {
                    (Value::Dict(a), Value::Dict(b)) => {
                        let mut out = (**a).clone();
                        for (k, v) in b.iter() {
                            out.insert(k.clone(), v.clone());
                        }
                        Ok(Value::dict(out))
                    }
                    _ => Err(err("merge expects two dicts".into())),
                }
            }
            "get" => {
                arity(2..=3)?;
                match (&args[0], &args[1]) {
                    (Value::Dict(d), Value::Str(k)) => Ok(d
                        .get(&**k)
                        .cloned()
                        .or_else(|| args.get(2).cloned())
                        .unwrap_or(Value::Null)),
                    (Value::Struct(s), Value::Str(k)) => Ok(s
                        .get(k)
                        .cloned()
                        .or_else(|| args.get(2).cloned())
                        .unwrap_or(Value::Null)),
                    _ => Err(err("get expects (dict, string, [default])".into())),
                }
            }
            "has" => {
                arity(2..=2)?;
                match (&args[0], &args[1]) {
                    (Value::Dict(d), Value::Str(k)) => Ok(Value::Bool(d.contains_key(&**k))),
                    (Value::Struct(s), Value::Str(k)) => Ok(Value::Bool(s.get(k).is_some())),
                    _ => Err(err("has expects (dict|struct, string)".into())),
                }
            }
            "join" => {
                arity(2..=2)?;
                match (&args[0], &args[1]) {
                    (Value::List(l), Value::Str(sep)) => {
                        let parts: Vec<String> = l.iter().map(|v| v.to_string()).collect();
                        Ok(Value::str(parts.join(sep)))
                    }
                    _ => Err(err("join expects (list, string)".into())),
                }
            }
            "split" => {
                arity(2..=2)?;
                match (&args[0], &args[1]) {
                    (Value::Str(s), Value::Str(sep)) if !sep.is_empty() => {
                        Ok(Value::list(s.split(&**sep).map(Value::str).collect()))
                    }
                    _ => Err(err("split expects (string, nonempty string)".into())),
                }
            }
            "upper" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Str(s) => Ok(Value::str(s.to_uppercase())),
                    other => Err(err(format!("upper of {}", other.type_name()))),
                }
            }
            "lower" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Str(s) => Ok(Value::str(s.to_lowercase())),
                    other => Err(err(format!("lower of {}", other.type_name()))),
                }
            }
            "startswith" | "endswith" => {
                arity(2..=2)?;
                match (&args[0], &args[1]) {
                    (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(if name == "startswith" {
                        s.starts_with(&**p)
                    } else {
                        s.ends_with(&**p)
                    })),
                    _ => Err(err(format!("{name} expects two strings"))),
                }
            }
            "type" => {
                arity(1..=1)?;
                match &args[0] {
                    Value::Struct(s) => Ok(Value::str(&s.type_name)),
                    other => Ok(Value::str(other.type_name())),
                }
            }
            other => Err(err(format!("unknown builtin: {other}"))),
        }
    }
}

fn scope_of(slot: &Slot) -> &Scope {
    match slot {
        Slot::Live { scope, .. } => scope,
        Slot::Done(module) => &module.scope,
    }
}

/// Names resolvable as builtin functions.
pub const BUILTINS: &[&str] = &[
    "export_if_last",
    "require",
    "fail",
    "len",
    "str",
    "int",
    "float",
    "range",
    "min",
    "max",
    "abs",
    "sum",
    "sorted",
    "keys",
    "values",
    "append",
    "merge",
    "get",
    "has",
    "join",
    "split",
    "upper",
    "lower",
    "startswith",
    "endswith",
    "type",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)], entry: &str) -> Result<Value> {
        let mut loader = BTreeMap::new();
        for (p, s) in files {
            loader.insert(p.to_string(), s.to_string());
        }
        let mut interp = Interp::new(&loader, Limits::default());
        interp.run_entry(entry)?;
        interp
            .exported()
            .cloned()
            .ok_or_else(|| CdslError::nowhere(ErrorKind::Export("nothing exported".into())))
    }

    fn run_one(src: &str) -> Result<Value> {
        run(&[("main.cconf", src)], "main.cconf")
    }

    #[test]
    fn arithmetic_and_export() {
        let v = run_one("x = 1 + 2 * 3\nexport_if_last(x)").unwrap();
        assert_eq!(v, Value::Int(7));
    }

    #[test]
    fn string_and_list_operations() {
        let v = run_one("export_if_last(\"a\" + \"b\")").unwrap();
        assert_eq!(v, Value::str("ab"));
        let v = run_one("export_if_last([1] + [2, 3])").unwrap();
        assert_eq!(
            v,
            Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn functions_defaults_and_kwargs() {
        let src = r#"
def make(name, port=8089, replicas=3):
    return {"name": name, "port": port, "replicas": replicas}

export_if_last(make("cache", replicas=5))
"#;
        let v = run_one(src).unwrap();
        assert_eq!(v.to_json(), r#"{"name":"cache","port":8089,"replicas":5}"#);
    }

    #[test]
    fn control_flow() {
        let src = r#"
total = 0
for i in range(5):
    if i % 2 == 0:
        total = total + i
export_if_last(total)
"#;
        assert_eq!(run_one(src).unwrap(), Value::Int(6));
    }

    #[test]
    fn conditional_expression_and_bool_ops() {
        assert_eq!(
            run_one("export_if_last(1 if true and not false else 2)").unwrap(),
            Value::Int(1)
        );
        // `or` returns the first truthy operand, Python-style.
        assert_eq!(run_one("export_if_last(null or 5)").unwrap(), Value::Int(5));
    }

    #[test]
    fn import_copies_bindings() {
        let files = [
            ("app_port.cinc", "APP_PORT = 8089"),
            (
                "app.cconf",
                "import \"app_port.cinc\"\nexport_if_last({\"port\": APP_PORT})",
            ),
        ];
        let v = run(&files, "app.cconf").unwrap();
        assert_eq!(v.to_json(), r#"{"port":8089}"#);
    }

    #[test]
    fn imported_module_export_is_ignored() {
        let files = [
            ("lib.cinc", "export_if_last(\"not me\")\nHELPER = 1"),
            ("main.cconf", "import \"lib.cinc\"\nexport_if_last(HELPER)"),
        ];
        assert_eq!(run(&files, "main.cconf").unwrap(), Value::Int(1));
    }

    #[test]
    fn double_export_rejected() {
        let e = run_one("export_if_last(1)\nexport_if_last(2)").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Export(_)));
    }

    #[test]
    fn import_cycle_detected() {
        let files = [
            ("a.cinc", "import \"b.cinc\""),
            ("b.cinc", "import \"a.cinc\""),
            ("main.cconf", "import \"a.cinc\"\nexport_if_last(1)"),
        ];
        let e = run(&files, "main.cconf").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::ImportCycle(_)));
    }

    #[test]
    fn missing_import_reported() {
        let e = run_one("import \"ghost.cinc\"\nexport_if_last(1)").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::MissingSource(_)));
    }

    #[test]
    fn deps_are_transitive() {
        let files = [
            ("a.cinc", "import \"b.cinc\"\nA = B + 1"),
            ("b.cinc", "B = 1"),
            ("main.cconf", "import \"a.cinc\"\nexport_if_last(A)"),
        ];
        let mut loader = BTreeMap::new();
        for (p, s) in files {
            loader.insert(p.to_string(), s.to_string());
        }
        let mut interp = Interp::new(&loader, Limits::default());
        interp.run_entry("main.cconf").unwrap();
        let deps: Vec<&str> = interp.deps().iter().map(String::as_str).collect();
        assert_eq!(deps, vec!["a.cinc", "b.cinc"]);
        assert_eq!(interp.exported(), Some(&Value::Int(2)));
    }

    const JOB_SCHEMA: &str = r#"
enum JobKind { BATCH = 0, SERVICE = 1 }
struct Job {
    1: string name
    2: optional i64 memory_mb = 1024
    3: list<i64> ports
    4: JobKind kind = BATCH
}
"#;

    fn job_files(main: &str) -> Vec<(String, String)> {
        vec![
            ("job.schema".to_string(), JOB_SCHEMA.to_string()),
            ("main.cconf".to_string(), main.to_string()),
        ]
    }

    fn run_job(main: &str) -> Result<Value> {
        let files: Vec<(String, String)> = job_files(main);
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        run(&refs, "main.cconf")
    }

    #[test]
    fn struct_construction_fills_defaults_in_schema_order() {
        let v = run_job(
            "schema \"job.schema\"\nexport_if_last(Job { name: \"cache\", ports: [80, 81] })",
        )
        .unwrap();
        assert_eq!(
            v.to_json(),
            r#"{"name":"cache","memory_mb":1024,"ports":[80,81],"kind":"BATCH"}"#
        );
    }

    #[test]
    fn struct_unknown_field_rejected() {
        let e = run_job(
            "schema \"job.schema\"\nexport_if_last(Job { name: \"x\", ports: [], bogus: 1 })",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Type(_)), "{e}");
    }

    #[test]
    fn struct_missing_required_rejected() {
        let e = run_job("schema \"job.schema\"\nexport_if_last(Job { ports: [] })").unwrap_err();
        assert!(e.to_string().contains("missing required field name"));
    }

    #[test]
    fn struct_type_mismatch_rejected() {
        let e = run_job("schema \"job.schema\"\nexport_if_last(Job { name: 5, ports: [] })")
            .unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Type(_)));
        let e =
            run_job("schema \"job.schema\"\nexport_if_last(Job { name: \"x\", ports: [\"p\"] })")
                .unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Type(_)));
    }

    #[test]
    fn enum_access_and_field_read() {
        let src = r#"
schema "job.schema"
j = Job { name: "svc", ports: [1], kind: JobKind.SERVICE }
export_if_last({"kind": j.kind, "mem": j.memory_mb})
"#;
        let v = run_job(src).unwrap();
        assert_eq!(v.to_json(), r#"{"kind":"SERVICE","mem":1024}"#);
    }

    #[test]
    fn require_builtin_raises_validation() {
        let e = run_one("require(1 > 2, \"nope\")").unwrap_err();
        assert!(e.is_validation());
        assert_eq!(e.message(), "nope");
        assert!(run_one("require(true)\nexport_if_last(1)").is_ok());
    }

    #[test]
    fn step_budget_stops_infinite_recursion() {
        let src = "def f(x):\n    return f(x)\nexport_if_last(f(1))";
        let e = run_one(src).unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Budget(_)));
    }

    #[test]
    fn huge_range_rejected() {
        let e = run_one("export_if_last(range(100000000))").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Budget(_)));
    }

    #[test]
    fn builtins_suite() {
        let cases: &[(&str, &str)] = &[
            ("len([1,2,3])", "3"),
            ("len(\"abc\")", "3"),
            ("str(12)", "\"12\""),
            ("int(\"42\")", "42"),
            ("int(3.9)", "3"),
            ("float(2)", "2.0"),
            ("min([3,1,2])", "1"),
            ("max(3, 7)", "7"),
            ("abs(-4)", "4"),
            ("sum([1,2,3])", "6"),
            ("sorted([3,1,2])", "[1,2,3]"),
            ("keys({\"b\":1,\"a\":2})", "[\"a\",\"b\"]"),
            ("append([1], 2)", "[1,2]"),
            ("merge({\"a\":1}, {\"b\":2})", "{\"a\":1,\"b\":2}"),
            ("get({\"a\":1}, \"b\", 9)", "9"),
            ("has({\"a\":1}, \"a\")", "true"),
            ("join([1,2], \"-\")", "\"1-2\""),
            ("split(\"a,b\", \",\")", "[\"a\",\"b\"]"),
            ("upper(\"ab\")", "\"AB\""),
            ("startswith(\"abc\", \"ab\")", "true"),
            ("type([1])", "\"list\""),
            ("\"b\" in {\"b\": 1}", "true"),
            ("2 in [1,2]", "true"),
            ("\"bc\" in \"abcd\"", "true"),
            ("5 not in [1,2]", "true"),
        ];
        for (expr, expected) in cases {
            let v = run_one(&format!("export_if_last({expr})")).unwrap();
            assert_eq!(v.to_json(), *expected, "case: {expr}");
        }
    }

    #[test]
    fn division_semantics() {
        assert_eq!(run_one("export_if_last(7 / 2)").unwrap(), Value::Float(3.5));
        assert!(run_one("export_if_last(1 / 0)").is_err());
        assert_eq!(run_one("export_if_last(7 % 3)").unwrap(), Value::Int(1));
        assert_eq!(run_one("export_if_last(-7 % 3)").unwrap(), Value::Int(2));
    }

    #[test]
    fn negative_list_index() {
        assert_eq!(
            run_one("export_if_last([1,2,3][-1])").unwrap(),
            Value::Int(3)
        );
        assert!(run_one("export_if_last([1][5])").is_err());
    }

    #[test]
    fn undefined_name_reports_location() {
        let e = run_one("x = 1\ny = x + missing").unwrap_err();
        assert_eq!(e.location.line, 2);
        assert!(e.message().contains("missing"));
    }

    #[test]
    fn call_global_invokes_validator_style_function() {
        let files = [(
            "v.cvalidator",
            "def validate(cfg):\n    require(cfg[\"x\"] > 0, \"x must be positive\")",
        )];
        let mut loader = BTreeMap::new();
        for (p, s) in files {
            loader.insert(p.to_string(), s.to_string());
        }
        let mut interp = Interp::new(&loader, Limits::default());
        let m = interp.run_module("v.cvalidator").unwrap();
        let mut ok = BTreeMap::new();
        ok.insert("x".to_string(), Value::Int(5));
        assert!(interp
            .call_global(m, "validate", &[Value::dict(ok)])
            .is_ok());
        let mut bad = BTreeMap::new();
        bad.insert("x".to_string(), Value::Int(-1));
        let e = interp
            .call_global(m, "validate", &[Value::dict(bad)])
            .unwrap_err();
        assert!(e.is_validation());
    }

    #[test]
    fn integer_overflow_detected() {
        let e = run_one("export_if_last(9223372036854775807 + 1)").unwrap_err();
        assert!(e.message().contains("overflow"));
    }
}
