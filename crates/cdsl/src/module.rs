//! Evaluated modules: layered top-level scopes and the per-plan store.
//!
//! `import "m"` means "bind every top-level name of `m` here, over whatever
//! I have bound so far". The evaluator does not copy those bindings: a
//! finished module is frozen into an [`Arc`]-shared [`FrozenModule`] and the
//! importer *links* it as a lookup layer under its own assignments. Import
//! order still decides shadowing — linking drops the importer's earlier
//! bindings of the names the module binds, and a later link is searched
//! before an earlier one.
//!
//! A frozen module also records what evaluating it did to the interpreter
//! around it — the modules it imported, the schemas it loaded (in order)
//! and the steps it consumed — so linking it into another interpreter can
//! replay exactly those effects instead of re-executing it. That is what
//! the [`ModuleStore`] shares: within one immutable source view (one
//! compile plan), a module whose evaluation *in isolation* succeeds has one
//! value, whoever imports it — the property Nix builds its store on — so
//! the first compile that needs it evaluates it and every other compile,
//! on any thread, links the same frozen scope.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::interp::Limits;
use crate::schema::TypeDef;
use crate::value::Value;

/// The top-level bindings visible in a module: its own assignments over
/// the modules it imported.
#[derive(Debug, Default)]
pub(crate) struct Scope {
    own: HashMap<String, Value>,
    /// Every module imported so far, directly or through another import,
    /// each once, the one searched first at the front.
    layers: Vec<Arc<FrozenModule>>,
}

impl Scope {
    pub(crate) fn get(&self, name: &str) -> Option<&Value> {
        self.own
            .get(name)
            .or_else(|| self.layers.iter().find_map(|m| m.scope.own.get(name)))
    }

    pub(crate) fn insert(&mut self, name: String, value: Value) {
        self.own.insert(name, value);
    }

    /// `import`: everything `module` binds now shadows what this scope
    /// bound before, and is shadowed by what it binds afterwards.
    pub(crate) fn link(&mut self, module: &Arc<FrozenModule>) {
        if !self.own.is_empty() {
            self.own.retain(|name, _| module.scope.get(name).is_none());
        }
        let mut layers = Vec::with_capacity(1 + module.scope.layers.len() + self.layers.len());
        layers.push(Arc::clone(module));
        layers.extend(module.scope.layers.iter().cloned());
        let imported = layers.len();
        for old in self.layers.drain(..) {
            if !layers[..imported].iter().any(|m| Arc::ptr_eq(m, &old)) {
                layers.push(old);
            }
        }
        self.layers = layers;
    }
}

/// What evaluating a module did besides binding names, in program order.
#[derive(Debug)]
pub(crate) enum Effect {
    /// `import`: the module that was evaluated or linked.
    Import(Arc<FrozenModule>),
    /// `schema`: the definitions merged into the schema set.
    Schema {
        path: String,
        defs: Arc<Vec<TypeDef>>,
    },
}

/// A module after its last top-level statement ran: its final scope plus
/// the record needed to replay its evaluation elsewhere.
#[derive(Debug)]
pub(crate) struct FrozenModule {
    pub(crate) path: Arc<str>,
    pub(crate) scope: Scope,
    pub(crate) effects: Vec<Effect>,
    /// Steps its own statements consumed (imports are charged by the
    /// modules in `effects`).
    pub(crate) own_steps: u64,
    /// Evaluator frames it took at its deepest, imports included: how far
    /// under the frame budget an interpreter must be to link it.
    pub(crate) frames: u32,
}

/// What the store knows about a path.
#[derive(Clone)]
pub(crate) enum Stored {
    /// Evaluated in isolation; link this.
    Shared(Arc<FrozenModule>),
    /// Its isolated evaluation failed (it needs its importer's schemas,
    /// exhausts the budget, raises…): evaluate it in the importer's
    /// context, which reports whatever is wrong with path, line and text.
    /// The failure itself is not kept.
    NeedsContext,
}

/// Evaluated modules shared by every compile over **one immutable source
/// view**: entries are keyed by path and never invalidated, so a store
/// must not outlive the loader contents it was filled from (the
/// Configerator service makes one per compile plan and drops it with the
/// plan). It is `Sync`; compile workers share one instance.
///
/// Stored modules were evaluated under the store's [`Limits`]; an
/// interpreter running under different limits ignores the store.
pub struct ModuleStore {
    limits: Limits,
    modules: RwLock<HashMap<String, Stored>>,
}

impl Default for ModuleStore {
    fn default() -> ModuleStore {
        ModuleStore::new()
    }
}

impl ModuleStore {
    /// Creates an empty store for compiles under the default [`Limits`].
    pub fn new() -> ModuleStore {
        ModuleStore::with_limits(Limits::default())
    }

    /// Creates an empty store for compiles under `limits`.
    pub fn with_limits(limits: Limits) -> ModuleStore {
        ModuleStore {
            limits,
            modules: RwLock::new(HashMap::new()),
        }
    }

    /// The limits stored modules were evaluated under.
    pub(crate) fn limits(&self) -> Limits {
        self.limits
    }

    /// Number of modules evaluated once and shared.
    pub fn shared(&self) -> usize {
        let map = self.modules.read().expect("module store lock");
        map.values()
            .filter(|s| matches!(s, Stored::Shared(_)))
            .count()
    }

    pub(crate) fn get(&self, path: &str) -> Option<Stored> {
        self.modules
            .read()
            .expect("module store lock")
            .get(path)
            .cloned()
    }

    /// Records the outcome of an isolated evaluation and returns the
    /// entry every importer must use: workers may race to evaluate the
    /// same module, and the first to publish wins so that all of them link
    /// one instance.
    pub(crate) fn publish(&self, path: &str, outcome: Stored) -> Stored {
        self.modules
            .write()
            .expect("module store lock")
            .entry(path.to_string())
            .or_insert(outcome)
            .clone()
    }
}
