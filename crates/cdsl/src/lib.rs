//! # cdsl — configuration as code
//!
//! CDSL is the "configuration as code" layer of the Configerator
//! reproduction (§3.1 of *Holistic Configuration Management at Facebook*,
//! SOSP 2015). The paper compiles Python programs against Thrift schemas
//! into JSON configs; CDSL keeps every architectural element of that
//! pipeline with a small self-contained language:
//!
//! * **Config programs** (`.cconf` / `.cinc`): an indentation-structured
//!   expression language with functions, imports, and struct construction.
//! * **Schemas** (`.schema`): Thrift-style struct/enum definitions; struct
//!   construction is type-checked and defaults are filled in.
//! * **Validators** (`.cvalidator`): `validate(cfg)` functions run
//!   automatically by the compiler; `require(cond, msg)` failures fail the
//!   compile.
//! * **Dependencies** are extracted from the import graph, never declared
//!   by hand — change a shared `.cinc` and every downstream config
//!   recompiles (the Dependency Service in the `configerator` crate drives
//!   this).
//! * **Canonical JSON**: identical config values serialize byte-identically.
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeMap;
//! use cdsl::compile::Compiler;
//!
//! let mut files = BTreeMap::new();
//! files.insert("app_port.cinc".into(), "APP_PORT = 8089".to_string());
//! files.insert(
//!     "app.cconf".into(),
//!     "import \"app_port.cinc\"\nexport_if_last({\"port\": APP_PORT})".to_string(),
//! );
//! files.insert(
//!     "firewall.cconf".into(),
//!     "import \"app_port.cinc\"\nexport_if_last({\"allow\": [APP_PORT]})".to_string(),
//! );
//!
//! let compiler = Compiler::new(&files);
//! let app = compiler.compile("app.cconf").unwrap();
//! let fw = compiler.compile("firewall.cconf").unwrap();
//! // Both configs depend on the shared module, so a change to it
//! // recompiles both (the paper's app.cconf / firewall.cconf example).
//! assert_eq!(app.deps, vec!["app_port.cinc"]);
//! assert_eq!(fw.deps, vec!["app_port.cinc"]);
//! ```

pub mod analysis;
pub mod ast;
pub mod cache;
pub mod compile;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod module;
pub mod parser;
pub mod schema;
pub mod value;

pub use analysis::{FactsCache, Finding, Severity, Verifier, VerifyReport};
pub use cache::{content_key, CacheStats, ContentKey, ParseCache};
pub use compile::{CompiledConfig, Compiler, COMPILER_VERSION};
pub use error::{CdslError, ErrorKind, Result};
pub use interp::{Interp, Limits, Loader};
pub use module::ModuleStore;
pub use schema::{SchemaSet, Type, TypeDef};
pub use value::{StructValue, Value};
