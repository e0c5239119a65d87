//! The MobileConfig server side: translation servers bridging mobile
//! clients to the backend systems.

use std::collections::BTreeMap;
use std::collections::HashMap;

use gatekeeper::context::{hash_str, mix64, UserContext};
use gatekeeper::experiment::{Experiment, ParamValue};
use gatekeeper::runtime::Runtime;

use crate::schema::MobileSchema;
use crate::translation::{Binding, TranslationLayer};

/// A client pull request: hashes only, per §5's bandwidth minimization.
/// It borrows what the client already holds, so building one is free.
#[derive(Debug, Clone, Copy)]
pub struct PullRequest<'a> {
    /// Config name.
    pub config: &'a str,
    /// Hash of the client's compiled-in schema (version identification).
    pub schema_hash: u64,
    /// Hash of the values currently cached on the client.
    pub values_hash: u64,
    /// The requesting user/device.
    pub user: &'a UserContext,
}

impl PullRequest<'_> {
    /// Wire size of the request: two hashes plus the config name.
    pub fn wire_size(&self) -> u64 {
        16 + self.config.len() as u64 + 8
    }
}

/// The server's reply.
#[derive(Debug, Clone, PartialEq)]
pub enum PullReply {
    /// Client is current; nothing sent but the ack.
    NotModified,
    /// Fresh values for every field in the client's schema version.
    Values {
        /// Field → value.
        values: BTreeMap<String, ParamValue>,
        /// Hash of those values (client caches it for the next poll).
        hash: u64,
    },
    /// The schema hash is unknown to the server.
    UnknownSchema,
}

impl PullReply {
    /// Wire size of the reply.
    pub fn wire_size(&self) -> u64 {
        match self {
            PullReply::NotModified | PullReply::UnknownSchema => 16,
            PullReply::Values { values, .. } => {
                8 + values
                    .iter()
                    .map(|(k, v)| {
                        k.len() as u64
                            + match v {
                                ParamValue::Str(s) => s.len() as u64 + 2,
                                _ => 9,
                            }
                    })
                    .sum::<u64>()
            }
        }
    }
}

/// Cumulative server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Pulls handled.
    pub pulls: u64,
    /// Pulls answered with `NotModified`.
    pub not_modified: u64,
    /// Total reply bytes.
    pub reply_bytes: u64,
    /// Emergency pushes sent.
    pub pushes: u64,
}

impl ServerStats {
    /// Publishes this server's cumulative stats as deltas into the ODS
    /// fleet plane. `prev` is the snapshot published at the previous scrape
    /// interval (so repeated publishes emit increments, not lifetime
    /// totals); pass `ServerStats::default()` the first time.
    pub fn publish_ods(
        &self,
        prev: &ServerStats,
        ods: &mut simnet::ods::Ods,
        node: simnet::NodeId,
        at: simnet::SimTime,
    ) {
        use simnet::ods::{series, tiers};
        ods.emit_counter(
            node,
            tiers::MOBILE,
            series::POLLS,
            at,
            self.pulls.saturating_sub(prev.pulls) as f64,
        );
        ods.emit_gauge(
            node,
            tiers::MOBILE,
            "not_modified_fraction",
            at,
            if self.pulls == 0 {
                0.0
            } else {
                self.not_modified as f64 / self.pulls as f64
            },
        );
    }
}

/// One field of a [`Plan`].
#[derive(Debug)]
struct PlanField {
    name: String,
    /// `hash_str(name)`, the field's share of the values hash.
    name_hash: u64,
    /// The translation layer's binding, or `None` for an unbound field.
    binding: Option<Binding>,
}

/// How to resolve one schema: its fields in canonical order, each with its
/// binding looked up once. A registered schema's plan is rebuilt when the
/// schema is registered and when the translation layer changes — the only
/// two things it depends on.
#[derive(Debug)]
struct Plan {
    config: String,
    fields: Vec<PlanField>,
}

impl Plan {
    fn new(schema: &MobileSchema, translation: &TranslationLayer) -> Plan {
        let mut plan = Plan {
            config: schema.config.clone(),
            fields: schema
                .fields
                .keys()
                .map(|name| PlanField {
                    name: name.clone(),
                    name_hash: hash_str(name),
                    binding: None,
                })
                .collect(),
        };
        plan.bind(translation);
        plan
    }

    fn bind(&mut self, translation: &TranslationLayer) {
        for field in &mut self.fields {
            field.binding = translation.lookup(&self.config, &field.name).cloned();
        }
    }

    /// Evaluates every field for `user`, in canonical order, into `out`
    /// (cleared first) and returns the values' hash — the same number
    /// [`hash_values`] gives for the map [`Plan::values`] builds from `out`.
    fn walk(
        &self,
        gatekeeper: &mut Runtime,
        experiments: &HashMap<String, Experiment>,
        user: &UserContext,
        out: &mut Vec<ParamValue>,
    ) -> u64 {
        out.clear();
        let mut h = VALUES_HASH_SEED;
        for field in &self.fields {
            let value = match &field.binding {
                Some(Binding::Gatekeeper { project }) => {
                    ParamValue::Bool(gatekeeper.check(project, user))
                }
                Some(Binding::Experiment { name, param }) => experiments
                    .get(name)
                    .and_then(|e| e.param(user.user_id, param).cloned())
                    .unwrap_or(ParamValue::Bool(false)),
                Some(Binding::Constant(v)) => v.clone(),
                // Unbound fields fail closed/zero.
                None => ParamValue::Bool(false),
            };
            h = fold_value(h, field.name_hash, &value);
            out.push(value);
        }
        h
    }

    /// The field → value map of a reply, from what [`Plan::walk`] left in
    /// `values`.
    fn values(&self, values: &mut Vec<ParamValue>) -> BTreeMap<String, ParamValue> {
        self.fields
            .iter()
            .map(|f| f.name.clone())
            .zip(values.drain(..))
            .collect()
    }
}

/// The server: schema registry, translation layer, and backends.
pub struct MobileConfigServer {
    /// The resolve plan of every shipped app version's schema, by schema
    /// hash.
    plans: HashMap<u64, Plan>,
    translation: TranslationLayer,
    gatekeeper: Runtime,
    experiments: HashMap<String, Experiment>,
    stats: ServerStats,
    /// Stateful sessions (the paper's footnote-2 future enhancement):
    /// session id → (schema hash, last values hash), so repeat polls need
    /// not retransmit the hashes.
    sessions: HashMap<u64, (u64, u64)>,
    next_session: u64,
    /// The values of the poll being answered, reused across polls so a
    /// `NotModified` reply allocates nothing.
    scratch: Vec<ParamValue>,
}

impl MobileConfigServer {
    /// Creates a server over a Gatekeeper runtime.
    pub fn new(translation: TranslationLayer, gatekeeper: Runtime) -> MobileConfigServer {
        MobileConfigServer {
            plans: HashMap::new(),
            translation,
            gatekeeper,
            experiments: HashMap::new(),
            stats: ServerStats::default(),
            sessions: HashMap::new(),
            next_session: 1,
            scratch: Vec::new(),
        }
    }

    /// Opens a stateful session for a client (§5 footnote 2: "make the
    /// server stateful, i.e., remembering each client's hash values to
    /// avoid repeated transfer of the hash values"). Returns a session id
    /// the client passes to [`MobileConfigServer::pull_session`].
    pub fn open_session(&mut self, schema_hash: u64) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, (schema_hash, 0));
        id
    }

    /// Session-based pull: the request carries only the session id and the
    /// user — the server remembers the schema and the last values hash it
    /// served. Returns `None` for an unknown/expired session (the client
    /// falls back to a stateless [`MobileConfigServer::pull`]); only a pull
    /// that produces a reply is counted.
    pub fn pull_session(&mut self, session: u64, user: &UserContext) -> Option<PullReply> {
        let (schema_hash, last_values) = *self.sessions.get(&session)?;
        let plan = self.plans.get(&schema_hash)?;
        let hash = plan.walk(
            &mut self.gatekeeper,
            &self.experiments,
            user,
            &mut self.scratch,
        );
        let reply = if hash == last_values {
            PullReply::NotModified
        } else {
            self.sessions.insert(session, (schema_hash, hash));
            PullReply::Values {
                values: plan.values(&mut self.scratch),
                hash,
            }
        };
        self.count(&reply);
        Some(reply)
    }

    /// Registers a shipped app version's schema so legacy clients keep
    /// resolving (§5's backward compatibility).
    pub fn register_schema(&mut self, schema: MobileSchema) {
        self.plans
            .insert(schema.hash(), Plan::new(&schema, &self.translation));
    }

    /// Installs or updates an experiment backend.
    pub fn update_experiment(&mut self, exp: Experiment) {
        self.experiments.insert(exp.name.clone(), exp);
    }

    /// Replaces the translation layer (a live config update).
    pub fn update_translation(&mut self, t: TranslationLayer) {
        self.translation = t;
        for plan in self.plans.values_mut() {
            plan.bind(&self.translation);
        }
    }

    /// Mutable access to the Gatekeeper runtime (live project updates).
    pub fn gatekeeper_mut(&mut self) -> &mut Runtime {
        &mut self.gatekeeper
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Resolves every field of `schema` for `user` through the translation
    /// layer, and hashes the result.
    fn resolve_hashed(
        &mut self,
        schema: &MobileSchema,
        user: &UserContext,
    ) -> (BTreeMap<String, ParamValue>, u64) {
        let unregistered;
        let plan = match self.plans.get(&schema.hash()) {
            Some(plan) => plan,
            None => {
                unregistered = Plan::new(schema, &self.translation);
                &unregistered
            }
        };
        let hash = plan.walk(
            &mut self.gatekeeper,
            &self.experiments,
            user,
            &mut self.scratch,
        );
        (plan.values(&mut self.scratch), hash)
    }

    /// Resolves every field of `schema` for `user` through the translation
    /// layer.
    pub fn resolve(
        &mut self,
        schema: &MobileSchema,
        user: &UserContext,
    ) -> BTreeMap<String, ParamValue> {
        self.resolve_hashed(schema, user).0
    }

    /// Handles a client pull (§5): compares the values hash and sends data
    /// only when something changed for this user and schema version.
    pub fn pull(&mut self, req: &PullRequest<'_>) -> PullReply {
        let Some(plan) = self.plans.get(&req.schema_hash) else {
            let reply = PullReply::UnknownSchema;
            self.count(&reply);
            return reply;
        };
        debug_assert_eq!(plan.config, req.config);
        let hash = plan.walk(
            &mut self.gatekeeper,
            &self.experiments,
            req.user,
            &mut self.scratch,
        );
        let reply = if hash == req.values_hash {
            PullReply::NotModified
        } else {
            PullReply::Values {
                values: plan.values(&mut self.scratch),
                hash,
            }
        };
        self.count(&reply);
        reply
    }

    /// Counts one answered pull.
    fn count(&mut self, reply: &PullReply) {
        self.stats.pulls += 1;
        if matches!(reply, PullReply::NotModified) {
            self.stats.not_modified += 1;
        }
        self.stats.reply_bytes += reply.wire_size();
    }

    /// Resolves fresh values for an emergency push to one client (§5:
    /// "the server occasionally pushes emergency config changes to the
    /// client through push notification, e.g., to immediately disable a
    /// buggy product feature").
    pub fn emergency_push_for(
        &mut self,
        schema: &MobileSchema,
        user: &UserContext,
    ) -> (BTreeMap<String, ParamValue>, u64) {
        self.stats.pushes += 1;
        self.resolve_hashed(schema, user)
    }
}

/// The values hash before any field is folded in.
const VALUES_HASH_SEED: u64 = 0x243F6A8885A308D3;

/// Folds one field (by its name's `hash_str`) and its value into a values
/// hash.
fn fold_value(h: u64, name_hash: u64, value: &ParamValue) -> u64 {
    let vh = match value {
        ParamValue::Bool(b) => *b as u64,
        ParamValue::Int(i) => mix64(*i as u64),
        ParamValue::Float(f) => mix64(f.to_bits()),
        ParamValue::Str(s) => hash_str(s),
    };
    mix64(h ^ name_hash ^ vh)
}

/// Stable hash of a resolved value map.
pub fn hash_values(values: &BTreeMap<String, ParamValue>) -> u64 {
    values
        .iter()
        .fold(VALUES_HASH_SEED, |h, (k, v)| fold_value(h, hash_str(k), v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;
    use gatekeeper::project::Project;

    fn server() -> MobileConfigServer {
        let mut t = TranslationLayer::new();
        t.bind(
            "C",
            "feature_x",
            Binding::Gatekeeper {
                project: "ProjX".into(),
            },
        );
        t.bind("C", "limit", Binding::Constant(ParamValue::Int(10)));
        let mut gk = Runtime::new(laser::Laser::new(16));
        gk.update_project(Project::fraction_launch("ProjX", 0.0));
        let mut s = MobileConfigServer::new(t, gk);
        s.register_schema(schema());
        s
    }

    fn schema() -> MobileSchema {
        MobileSchema::new(
            "C",
            &[("feature_x", FieldType::Bool), ("limit", FieldType::Int)],
        )
    }

    #[test]
    fn pull_resolves_and_suppresses_unchanged() {
        let mut s = server();
        let req_user = UserContext::with_id(1);
        let req = PullRequest {
            config: "C",
            schema_hash: schema().hash(),
            values_hash: 0,
            user: &req_user,
        };
        let PullReply::Values { values, hash } = s.pull(&req) else {
            panic!("first pull must send values");
        };
        assert_eq!(values["feature_x"], ParamValue::Bool(false));
        assert_eq!(values["limit"], ParamValue::Int(10));
        // Second pull with the hash → NotModified, tiny reply.
        let req2 = PullRequest {
            values_hash: hash,
            ..req
        };
        assert_eq!(s.pull(&req2), PullReply::NotModified);
        assert_eq!(s.stats().not_modified, 1);
    }

    #[test]
    fn backend_change_invalidates_hash() {
        let mut s = server();
        let req_user = UserContext::with_id(1);
        let req = PullRequest {
            config: "C",
            schema_hash: schema().hash(),
            values_hash: 0,
            user: &req_user,
        };
        let PullReply::Values { hash, .. } = s.pull(&req) else {
            panic!()
        };
        // Launch the feature to 100%.
        s.gatekeeper_mut()
            .update_project(Project::fraction_launch("ProjX", 1.0));
        let req2 = PullRequest {
            values_hash: hash,
            ..req
        };
        let PullReply::Values { values, .. } = s.pull(&req2) else {
            panic!("changed gate must invalidate the hash");
        };
        assert_eq!(values["feature_x"], ParamValue::Bool(true));
    }

    #[test]
    fn legacy_schema_resolves_only_its_fields() {
        let mut s = server();
        let legacy = MobileSchema::new("C", &[("feature_x", FieldType::Bool)]);
        s.register_schema(legacy.clone());
        let req_user = UserContext::with_id(1);
        let req = PullRequest {
            config: "C",
            schema_hash: legacy.hash(),
            values_hash: 0,
            user: &req_user,
        };
        let PullReply::Values { values, .. } = s.pull(&req) else {
            panic!()
        };
        assert_eq!(values.len(), 1, "legacy client must not see new fields");
        assert!(values.contains_key("feature_x"));
    }

    #[test]
    fn stateful_session_skips_hash_retransmission() {
        let mut s = server();
        let session = s.open_session(schema().hash());
        let user = UserContext::with_id(1);
        // First session pull sends values; second is NotModified without
        // the client ever transmitting a hash.
        assert!(matches!(
            s.pull_session(session, &user),
            Some(PullReply::Values { .. })
        ));
        assert_eq!(s.pull_session(session, &user), Some(PullReply::NotModified));
        // A backend change invalidates the remembered hash.
        s.gatekeeper_mut()
            .update_project(Project::fraction_launch("ProjX", 1.0));
        assert!(matches!(
            s.pull_session(session, &user),
            Some(PullReply::Values { .. })
        ));
        // Unknown session → stateless fallback required.
        assert!(s.pull_session(9999, &user).is_none());
    }

    #[test]
    fn a_failed_session_pull_and_its_fallback_count_one_pull() {
        let mut s = server();
        let user = UserContext::with_id(1);
        assert!(s.pull_session(9999, &user).is_none());
        let orphan = s.open_session(0xDEAD);
        assert!(s.pull_session(orphan, &user).is_none());
        assert_eq!(s.stats().pulls, 0, "no reply, no pull");
        let req = PullRequest {
            config: "C",
            schema_hash: schema().hash(),
            values_hash: 0,
            user: &user,
        };
        assert!(matches!(s.pull(&req), PullReply::Values { .. }));
        assert_eq!(s.stats().pulls, 1);
    }

    #[test]
    fn translation_update_rebinds_registered_schemas() {
        let mut s = server();
        let user = UserContext::with_id(1);
        let req = PullRequest {
            config: "C",
            schema_hash: schema().hash(),
            values_hash: 0,
            user: &user,
        };
        let PullReply::Values { hash, .. } = s.pull(&req) else {
            panic!()
        };
        let mut t = TranslationLayer::new();
        t.bind("C", "feature_x", Binding::Constant(ParamValue::Bool(true)));
        s.update_translation(t);
        let req2 = PullRequest {
            values_hash: hash,
            ..req
        };
        let PullReply::Values { values, .. } = s.pull(&req2) else {
            panic!("a remap must reach registered schemas");
        };
        assert_eq!(values["feature_x"], ParamValue::Bool(true));
        assert_eq!(values["limit"], ParamValue::Bool(false), "now unbound");
    }

    #[test]
    fn unknown_schema_hash_is_flagged() {
        let mut s = server();
        let req_user = UserContext::with_id(1);
        let req = PullRequest {
            config: "C",
            schema_hash: 0xDEAD,
            values_hash: 0,
            user: &req_user,
        };
        assert_eq!(s.pull(&req), PullReply::UnknownSchema);
    }
}
