//! The MobileConfig client library (the cross-platform C++ library of
//! Figure 6, as a Rust struct).
//!
//! The app sees a context class with typed getters; the client library
//! polls the server periodically, caches values "on flash" (here: in the
//! struct, surviving `poll` failures), and accepts emergency pushes.

use std::collections::BTreeMap;

use gatekeeper::context::UserContext;
use gatekeeper::experiment::ParamValue;

use crate::schema::MobileSchema;
use crate::server::{MobileConfigServer, PullReply, PullRequest};

/// Result of one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollOutcome {
    /// Whether new values were applied.
    pub changed: bool,
    /// Bytes moved (request + reply) — the §5 bandwidth accounting.
    pub bytes: u64,
}

/// A mobile app's config client.
#[derive(Debug, Clone)]
pub struct MobileConfigClient {
    user: UserContext,
    schema: MobileSchema,
    /// `schema.hash()`, sent with every poll.
    schema_hash: u64,
    /// The flash cache: field → value.
    cache: BTreeMap<String, ParamValue>,
    values_hash: u64,
    polls: u64,
}

impl MobileConfigClient {
    /// Creates a client for `user` with the app build's `schema`. The
    /// cache starts empty: getters return defaults until the first poll or
    /// push.
    pub fn new(user: UserContext, schema: MobileSchema) -> MobileConfigClient {
        MobileConfigClient {
            user,
            schema_hash: schema.hash(),
            schema,
            cache: BTreeMap::new(),
            values_hash: 0,
            polls: 0,
        }
    }

    /// Polls the server for changes (the periodic pull of §5).
    pub fn poll(&mut self, server: &mut MobileConfigServer) -> PollOutcome {
        self.polls += 1;
        let req = PullRequest {
            config: &self.schema.config,
            schema_hash: self.schema_hash,
            values_hash: self.values_hash,
            user: &self.user,
        };
        let req_bytes = req.wire_size();
        let reply = server.pull(&req);
        let reply_bytes = reply.wire_size();
        let changed = match reply {
            PullReply::Values { values, hash } => {
                self.cache = values;
                self.values_hash = hash;
                true
            }
            PullReply::NotModified | PullReply::UnknownSchema => false,
        };
        PollOutcome {
            changed,
            bytes: req_bytes + reply_bytes,
        }
    }

    /// Applies an emergency push from the server.
    pub fn apply_push(&mut self, values: BTreeMap<String, ParamValue>, hash: u64) {
        self.cache = values;
        self.values_hash = hash;
    }

    /// Number of polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// `myCfg.getBool(FEATURE_X)` (Figure 6). Unknown or mistyped fields
    /// return the default, as mobile client libraries must never crash on
    /// config skew.
    pub fn get_bool(&self, field: &str) -> bool {
        match self.cache.get(field) {
            Some(ParamValue::Bool(b)) => *b,
            _ => false,
        }
    }

    /// `myCfg.getInt(...)` with default 0.
    pub fn get_int(&self, field: &str) -> i64 {
        match self.cache.get(field) {
            Some(ParamValue::Int(v)) => *v,
            _ => 0,
        }
    }

    /// Float getter with default 0.0 (ints coerce).
    pub fn get_float(&self, field: &str) -> f64 {
        match self.cache.get(field) {
            Some(ParamValue::Float(v)) => *v,
            Some(ParamValue::Int(v)) => *v as f64,
            _ => 0.0,
        }
    }

    /// String getter with empty default.
    pub fn get_str(&self, field: &str) -> &str {
        match self.cache.get(field) {
            Some(ParamValue::Str(s)) => s,
            _ => "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;
    use crate::translation::{Binding, TranslationLayer};
    use gatekeeper::project::Project;
    use gatekeeper::runtime::Runtime;

    fn setup() -> (MobileConfigServer, MobileConfigClient) {
        let schema = MobileSchema::new(
            "C",
            &[
                ("feature_x", FieldType::Bool),
                ("retry_limit", FieldType::Int),
                ("greeting", FieldType::Str),
            ],
        );
        let mut t = TranslationLayer::new();
        t.bind(
            "C",
            "feature_x",
            Binding::Gatekeeper {
                project: "P".into(),
            },
        );
        t.bind("C", "retry_limit", Binding::Constant(ParamValue::Int(3)));
        t.bind(
            "C",
            "greeting",
            Binding::Constant(ParamValue::Str("hello".into())),
        );
        let mut gk = Runtime::new(laser::Laser::new(16));
        gk.update_project(Project::fraction_launch("P", 1.0));
        let mut server = MobileConfigServer::new(t, gk);
        server.register_schema(schema.clone());
        let client = MobileConfigClient::new(UserContext::with_id(9), schema);
        (server, client)
    }

    #[test]
    fn typed_getters_with_defaults_before_first_poll() {
        let (_, c) = setup();
        assert!(!c.get_bool("feature_x"));
        assert_eq!(c.get_int("retry_limit"), 0);
        assert_eq!(c.get_str("greeting"), "");
    }

    #[test]
    fn poll_populates_and_second_poll_is_cheap() {
        let (mut s, mut c) = setup();
        let first = c.poll(&mut s);
        assert!(first.changed);
        assert!(c.get_bool("feature_x"));
        assert_eq!(c.get_int("retry_limit"), 3);
        assert_eq!(c.get_str("greeting"), "hello");
        let second = c.poll(&mut s);
        assert!(!second.changed);
        assert!(
            second.bytes < first.bytes,
            "hash suppression must shrink the reply: {} vs {}",
            second.bytes,
            first.bytes
        );
    }

    #[test]
    fn emergency_push_applies_without_polling() {
        let (mut s, mut c) = setup();
        c.poll(&mut s);
        assert!(c.get_bool("feature_x"));
        // Feature turns out buggy: kill it and push immediately.
        s.gatekeeper_mut()
            .update_project(Project::fraction_launch("P", 0.0));
        let schema = MobileSchema::new(
            "C",
            &[
                ("feature_x", FieldType::Bool),
                ("retry_limit", FieldType::Int),
                ("greeting", FieldType::Str),
            ],
        );
        let (values, hash) = s.emergency_push_for(&schema, &UserContext::with_id(9));
        c.apply_push(values, hash);
        assert!(!c.get_bool("feature_x"), "kill switch must apply instantly");
        // The next poll confirms the client is already current.
        let out = c.poll(&mut s);
        assert!(!out.changed);
    }

    #[test]
    fn mistyped_reads_fail_to_defaults() {
        let (mut s, mut c) = setup();
        c.poll(&mut s);
        // Reading an Int field as bool and vice versa.
        assert!(!c.get_bool("retry_limit"));
        assert_eq!(c.get_int("feature_x"), 0);
        assert_eq!(c.get_float("retry_limit"), 3.0, "int coerces to float");
    }
}
