//! What a poll resolves to, against a reference that resolves from scratch.
//!
//! The server resolves a registered schema through a plan built when the
//! schema is registered and rebuilt when the translation layer changes, and
//! compares a hash it folds while walking that plan. This property drives
//! random bindings, live project updates, Laser stream upserts, experiment
//! and translation updates between polls, over a current schema, legacy
//! schemas and an unregistered one, and checks after every step that:
//! - every entry point (`pull`, `pull_session`, `emergency_push_for`,
//!   `resolve`) yields the values a from-scratch resolve through the
//!   current translation layer and a twin Gatekeeper runtime gives;
//! - the hash `pull` and `pull_session` compare equals `hash_values` of
//!   those values, and a poll carrying it is `NotModified`.

use std::collections::BTreeMap;

use gatekeeper::context::mix64;
use gatekeeper::prelude::*;
use laser::Laser;
use mobileconfig::server::hash_values;
use mobileconfig::{
    Binding, FieldType, MobileConfigServer, MobileSchema, PullReply, PullRequest, TranslationLayer,
};

const APP: &str = "App";
const DATASET: &str = "d";
const FIELDS: [(&str, FieldType); 8] = [
    ("a", FieldType::Bool),
    ("b", FieldType::Bool),
    ("c", FieldType::Int),
    ("d", FieldType::Float),
    ("e", FieldType::Str),
    ("f", FieldType::Bool),
    ("g", FieldType::Int),
    ("h", FieldType::Bool),
];
const PROJECTS: [&str; 4] = ["p0", "p1", "p2", "p3"];
const EXPERIMENTS: [&str; 2] = ["x0", "x1"];
const USERS: u64 = 40;

/// A seeded SplitMix-style generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn value(&mut self) -> ParamValue {
        match self.below(4) {
            0 => ParamValue::Bool(self.below(2) == 0),
            1 => ParamValue::Int(self.below(7) as i64 - 3),
            2 => ParamValue::Float(self.below(5) as f64 / 4.0),
            _ => ParamValue::Str(format!("s{}", self.below(3))),
        }
    }

    fn project(&mut self, name: &str) -> Project {
        let restraint = match self.below(4) {
            0 => RestraintKind::Employee,
            1 => RestraintKind::IdMod {
                modulus: 3,
                remainder: self.below(3),
            },
            2 => RestraintKind::Laser {
                dataset: DATASET.into(),
                project: name.into(),
                threshold: 0.5,
            },
            _ => RestraintKind::Always,
        };
        let negate = self.below(4) == 0;
        Project::new(
            name,
            vec![
                Rule::new(
                    vec![RestraintSpec {
                        kind: restraint,
                        negate,
                    }],
                    self.below(5) as f64 / 4.0,
                ),
                Rule::new(vec![RestraintSpec::of(RestraintKind::Always)], 0.3),
            ],
        )
    }

    fn experiment(&mut self, name: &str) -> Experiment {
        let params = |g: &mut Gen| {
            let mut params = BTreeMap::new();
            for k in ["k", "m"] {
                if g.below(3) != 0 {
                    params.insert(k.to_string(), g.value());
                }
            }
            params
        };
        let groups = (0..self.below(3))
            .map(|i| Group {
                name: format!("g{i}"),
                fraction: 0.3,
                params: params(self),
            })
            .collect();
        let defaults = params(self);
        Experiment::new(name, groups, defaults)
    }

    fn translation(&mut self) -> TranslationLayer {
        let mut t = TranslationLayer::new();
        for (field, _) in FIELDS {
            let binding = match self.below(5) {
                0 => continue, // unbound
                1 => Binding::Constant(self.value()),
                2 => Binding::Experiment {
                    name: self.pick(&["x0", "x1", "ghost"]).to_string(),
                    param: self.pick(&["k", "m", "n"]).to_string(),
                },
                _ => Binding::Gatekeeper {
                    project: self.pick(&["p0", "p1", "p2", "p3", "ghost"]).to_string(),
                },
            };
            t.bind(APP, field, binding);
        }
        t
    }

    fn upserts(&mut self) -> Vec<(String, f64)> {
        (0..5)
            .map(|_| {
                let key = format!("{}-{}", self.pick(&PROJECTS), self.below(USERS));
                (key, self.below(4) as f64 / 3.0)
            })
            .collect()
    }

    fn schema(&mut self) -> MobileSchema {
        let fields: Vec<(&str, FieldType)> = FIELDS
            .iter()
            .copied()
            .filter(|_| self.below(2) == 0)
            .collect();
        MobileSchema::new(APP, &fields)
    }
}

/// The meaning of a poll, written from scratch: look every field up in the
/// current translation layer and evaluate it.
struct Reference {
    translation: TranslationLayer,
    gatekeeper: Runtime,
    experiments: BTreeMap<String, Experiment>,
}

impl Reference {
    fn resolve(
        &mut self,
        schema: &MobileSchema,
        user: &UserContext,
    ) -> BTreeMap<String, ParamValue> {
        schema
            .fields
            .keys()
            .map(|field| {
                let value = match self.translation.lookup(&schema.config, field) {
                    Some(Binding::Gatekeeper { project }) => {
                        ParamValue::Bool(self.gatekeeper.check(project, user))
                    }
                    Some(Binding::Experiment { name, param }) => self
                        .experiments
                        .get(name)
                        .and_then(|e| e.param(user.user_id, param).cloned())
                        .unwrap_or(ParamValue::Bool(false)),
                    Some(Binding::Constant(v)) => v.clone(),
                    None => ParamValue::Bool(false),
                };
                (field.clone(), value)
            })
            .collect()
    }
}

fn user(id: u64) -> UserContext {
    UserContext::with_id(id).employee(id.is_multiple_of(4))
}

fn run(seed: u64, steps: usize) {
    let mut g = Gen(seed);
    let mut laser = Laser::new(16);
    let entries = (0..USERS)
        .step_by(2)
        .flat_map(|u| PROJECTS.iter().map(move |p| (format!("{p}-{u}"), 0.9)))
        .collect();
    laser.load_dataset(DATASET, entries);
    let translation = g.translation();
    let mut server = MobileConfigServer::new(translation.clone(), Runtime::new(laser.clone()));
    let mut reference = Reference {
        translation,
        gatekeeper: Runtime::new(laser),
        experiments: BTreeMap::new(),
    };
    for p in PROJECTS {
        let project = g.project(p);
        server.gatekeeper_mut().update_project(project.clone());
        reference.gatekeeper.update_project(project);
    }
    let current = MobileSchema::new(APP, &FIELDS);
    let mut registered = vec![current];
    for _ in 0..2 {
        registered.push(g.schema());
    }
    for schema in &registered {
        server.register_schema(schema.clone());
    }
    let unregistered = MobileSchema::new(APP, &[("a", FieldType::Bool), ("zz", FieldType::Int)]);

    for step in 0..steps {
        match g.below(6) {
            0 => {
                let name = g.pick(&PROJECTS);
                let project = g.project(name);
                server.gatekeeper_mut().update_project(project.clone());
                reference.gatekeeper.update_project(project);
            }
            1 => {
                let upserts = g.upserts();
                server
                    .gatekeeper_mut()
                    .laser_mut()
                    .stream_upsert(DATASET, upserts.clone());
                reference
                    .gatekeeper
                    .laser_mut()
                    .stream_upsert(DATASET, upserts);
            }
            2 => {
                let t = g.translation();
                server.update_translation(t.clone());
                reference.translation = t;
            }
            3 => {
                let name = g.pick(&EXPERIMENTS);
                let exp = g.experiment(name);
                server.update_experiment(exp.clone());
                reference.experiments.insert(exp.name.clone(), exp);
            }
            _ => {}
        }
        let ctx = user(g.below(USERS));
        let schema = &registered[g.below(registered.len() as u64) as usize];
        let expected = reference.resolve(schema, &ctx);
        let expected_hash = hash_values(&expected);
        let at = format!("seed {seed} step {step}");

        let req = PullRequest {
            config: &schema.config,
            schema_hash: schema.hash(),
            values_hash: expected_hash ^ 1,
            user: &ctx,
        };
        assert_eq!(
            server.pull(&req),
            PullReply::Values {
                values: expected.clone(),
                hash: expected_hash
            },
            "{at}: pull"
        );
        let current = PullRequest {
            values_hash: expected_hash,
            ..req
        };
        assert_eq!(server.pull(&current), PullReply::NotModified, "{at}");

        let session = server.open_session(schema.hash());
        assert_eq!(
            server.pull_session(session, &ctx),
            Some(PullReply::Values {
                values: expected.clone(),
                hash: expected_hash
            }),
            "{at}: pull_session"
        );
        assert_eq!(
            server.pull_session(session, &ctx),
            Some(PullReply::NotModified),
            "{at}"
        );

        assert_eq!(
            server.emergency_push_for(schema, &ctx),
            (expected.clone(), expected_hash),
            "{at}: emergency_push_for"
        );
        assert_eq!(server.resolve(schema, &ctx), expected, "{at}: resolve");

        let expected = reference.resolve(&unregistered, &ctx);
        assert_eq!(
            server.resolve(&unregistered, &ctx),
            expected,
            "{at}: resolve of an unregistered schema"
        );
        assert_eq!(
            server.pull(&PullRequest {
                config: APP,
                schema_hash: unregistered.hash(),
                values_hash: 0,
                user: &ctx,
            }),
            PullReply::UnknownSchema,
            "{at}"
        );
    }
}

#[test]
fn every_entry_point_agrees_with_a_from_scratch_resolve() {
    for seed in 1..=20 {
        run(seed, 200);
    }
}
