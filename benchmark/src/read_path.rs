//! The read path: `read_path`.
//!
//! Closed loop, one client: Gatekeeper checks, a live project update and a
//! Laser stream upsert beside them, and MobileConfig device polls through
//! the translation layer, round after round. Writes sit beside reads so a
//! read-side cache that makes updates or invalidation expensive shows.

use std::time::Instant;

use gatekeeper::prelude::*;
use laser::Laser;
use mobileconfig::{
    Binding, FieldType, MobileConfigClient, MobileConfigServer, MobileSchema, TranslationLayer,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{
    self, fast_quartile, median, ratio, Metrics, Outcome, Rounds, Size, Tally, Tracer,
};

const DATASET: &str = "trending";
const APP: &str = "BenchApp";
/// Device fields bound to ordinary projects (index into the project list).
const FEATURE_FIELDS: [(&str, usize); 5] = [
    ("feat_a", 1),
    ("feat_b", 2),
    ("feat_c", 3),
    ("feat_d", 5),
    ("feat_laser", 0),
];

/// The input properties the read workload fixes.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Projects in `repro fig15`'s mix (a quarter carry a `laser()`
    /// restraint).
    pub projects: usize,
    /// Users; ids are drawn 80/20 (a fifth of the users get four fifths
    /// of the checks).
    pub users: u64,
    /// Laser memory-tier capacity. The dataset holds one key per laser
    /// project for every fifth user, which is more than this.
    pub memory_cap: usize,
    pub checks_per_round: usize,
    pub upsert_keys: usize,
    pub devices: usize,
    pub polls_per_round: usize,
    /// The translation layer is rebound every this many rounds.
    pub rebind_every: usize,
    /// Rounds always run, whatever the time budget.
    pub min_rounds: usize,
}

pub const READ_PATH: Shape = Shape {
    projects: 40,
    users: 100_000,
    memory_cap: 65_536,
    checks_per_round: 200_000,
    upsert_keys: 100,
    devices: 200,
    polls_per_round: 2_000,
    rebind_every: 10,
    min_rounds: 20,
};

impl Shape {
    pub fn sized(self, size: Size) -> Shape {
        match size {
            Size::Full => self,
            Size::Smoke => self.smoke(),
            Size::Probe => Shape {
                min_rounds: 600,
                ..self.smoke()
            },
        }
    }

    /// The `--smoke` size: about a twentieth, one round.
    fn smoke(self) -> Shape {
        Shape {
            users: self.users / 20,
            memory_cap: self.memory_cap / 20,
            checks_per_round: self.checks_per_round / 20,
            devices: (self.devices / 20).max(2),
            polls_per_round: (self.polls_per_round / 20).max(20),
            min_rounds: 1,
            ..self
        }
    }

    fn laser_projects(&self) -> impl Iterator<Item = usize> {
        (0..self.projects).step_by(4)
    }
}

fn user(id: u64) -> UserContext {
    let mut ctx = UserContext::with_id(id).country(if id.is_multiple_of(3) { "US" } else { "IN" });
    ctx.employee = id.is_multiple_of(500);
    ctx.friend_count = (id % 1000) as u32;
    ctx.new_user = id.is_multiple_of(20);
    if id.is_multiple_of(2) {
        ctx = ctx.device("Pixel 6");
    }
    ctx
}

/// Project `p` of the mix; `pass_prob` scales the rule that samples.
fn project(p: usize, pass_prob: f64) -> Project {
    let name = format!("proj{p}");
    let rules = match p % 4 {
        0 => vec![
            Rule::new(
                vec![
                    RestraintSpec::of(RestraintKind::Laser {
                        dataset: DATASET.into(),
                        project: name.clone(),
                        threshold: 0.5,
                    }),
                    RestraintSpec::of(RestraintKind::Employee),
                ],
                1.0,
            ),
            Rule::new(
                vec![RestraintSpec::of(RestraintKind::Always)],
                pass_prob / 50.0,
            ),
        ],
        1 => vec![Rule::new(
            vec![
                RestraintSpec::of(RestraintKind::Country(vec!["US".into(), "BR".into()])),
                RestraintSpec::of(RestraintKind::MinFriends(10)),
            ],
            pass_prob,
        )],
        2 => vec![Rule::new(
            vec![RestraintSpec::of(RestraintKind::IdMod {
                modulus: 100,
                remainder: 3,
            })],
            2.0 * pass_prob,
        )],
        _ => vec![Rule::new(
            vec![
                RestraintSpec::not(RestraintKind::NewUser),
                RestraintSpec::of(RestraintKind::DeviceModel(vec![
                    "Pixel 6".into(),
                    "iPhone 12".into(),
                ])),
            ],
            pass_prob / 5.0,
        )],
    };
    Project::new(&name, rules)
}

/// Projects whose verdict is known without running Gatekeeper.
fn known_answer_projects() -> [Project; 3] {
    [
        Project::fraction_launch("ka_none", 0.0),
        Project::fraction_launch("ka_all", 1.0),
        Project::new(
            "ka_employee",
            vec![Rule::new(
                vec![RestraintSpec::of(RestraintKind::Employee)],
                1.0,
            )],
        ),
    ]
}

fn translation(revision: i64, swap: bool) -> TranslationLayer {
    let mut t = TranslationLayer::new();
    let gk = |project: &str| Binding::Gatekeeper {
        project: project.to_string(),
    };
    t.bind(APP, "ka_all", gk("ka_all"));
    t.bind(APP, "ka_none", gk("ka_none"));
    t.bind(APP, "ka_emp", gk("ka_employee"));
    t.bind(
        APP,
        "revision",
        Binding::Constant(ParamValue::Int(revision)),
    );
    for (i, (field, p)) in FEATURE_FIELDS.iter().enumerate() {
        // A rebind remaps the first feature to another project (§5's live
        // remap) as well as bumping the constant.
        let p = if swap && i == 0 { p + 4 } else { *p };
        t.bind(APP, field, gk(&format!("proj{p}")));
    }
    t
}

/// The system under test, its unoptimised twin, the generator state, and
/// everything measured so far.
struct Run {
    shape: Shape,
    server: MobileConfigServer,
    /// Same projects and data with `set_optimize(false)`: must agree with
    /// the optimised runtime on every check.
    twin: Runtime,
    users: Vec<UserContext>,
    names: Vec<String>,
    devices: Vec<MobileConfigClient>,
    rng: SmallRng,
    revision: i64,
    tally: Tally,
    rounds: Vec<Round>,
    setup_s: f64,
}

/// Sets up (timed; repeatedly if `repeat`) and returns the path ready to
/// step, a round at a time.
pub fn start(shape: Shape, seed: u64, repeat: bool) -> Box<dyn Rounds> {
    let (mut run, setup_s) = harness::timed_setup(repeat, || build(shape, seed));
    run.setup_s = setup_s;
    Box::new(run)
}

/// Builds runtime, dataset, users and devices: everything before timing.
fn build(shape: Shape, seed: u64) -> Run {
    let mut laser = Laser::new(shape.memory_cap);
    let entries: Vec<(String, f64)> = shape
        .laser_projects()
        .flat_map(|p| {
            (0..shape.users)
                .step_by(5)
                .map(move |u| (format!("proj{p}-{u}"), if u % 10 == 0 { 0.9 } else { 0.2 }))
        })
        .collect();
    laser.load_dataset(DATASET, entries);
    let mut rt = Runtime::new(laser.clone());
    let mut twin = Runtime::new(laser);
    twin.set_optimize(false);
    for p in 0..shape.projects {
        rt.update_project(project(p, 0.5));
        twin.update_project(project(p, 0.5));
    }
    for ka in known_answer_projects() {
        rt.update_project(ka.clone());
        twin.update_project(ka);
    }
    twin.set_optimize(false);

    let fields: Vec<(&str, FieldType)> = ["ka_all", "ka_none", "ka_emp"]
        .into_iter()
        .chain(FEATURE_FIELDS.iter().map(|f| f.0))
        .map(|f| (f, FieldType::Bool))
        .chain(std::iter::once(("revision", FieldType::Int)))
        .collect();
    let schema = MobileSchema::new(APP, &fields);
    let mut server = MobileConfigServer::new(translation(0, false), rt);
    server.register_schema(schema.clone());
    let step = (shape.users / shape.devices as u64).max(1);
    let devices = (0..shape.devices as u64)
        .map(|d| MobileConfigClient::new(user(d * step), schema.clone()))
        .collect();
    Run {
        shape,
        server,
        twin,
        users: (0..shape.users).map(user).collect(),
        names: (0..shape.projects).map(|p| format!("proj{p}")).collect(),
        devices,
        rng: SmallRng::seed_from_u64(seed ^ 0x0EAD_0A70),
        revision: 0,
        tally: Tally::default(),
        rounds: Vec::new(),
        setup_s: 0.0,
    }
}

impl Run {
    fn skewed_user(&mut self) -> usize {
        let hot = (self.shape.users / 5).max(1);
        if self.rng.gen::<f64>() < 0.8 {
            self.rng.gen_range(0..hot) as usize
        } else {
            self.rng.gen_range(hot..self.shape.users.max(hot + 1)) as usize
        }
    }
}

/// Per-round measurements and counter deltas.
struct Round {
    traced: bool,
    checks_per_s: f64,
    polls_per_s: f64,
    update_us: f64,
    checks: u64,
    passes: u64,
    evals: u64,
    cost_units: u64,
    laser_reads: u64,
    laser_memory_hits: u64,
    polls: u64,
    not_modified: u64,
    reply_bytes: u64,
}

impl Rounds for Run {
    /// One round: checks, one update and one upsert, polls, then the
    /// untimed output checks.
    fn step(&mut self, tr: &mut Tracer) {
        let bed = self;
        let shape = bed.shape;
        let n = bed.rounds.len();
        let traced = tr.start_round(n);
        let t = tr;
        let op = n as u64;
        let mut tally = std::mem::take(&mut bed.tally);

        // --- checks ---
        let pairs: Vec<(u32, u32)> = (0..shape.checks_per_round)
            .map(|_| {
                let p = bed.rng.gen_range(0..shape.projects) as u32;
                (p, bed.skewed_user() as u32)
            })
            .collect();
        let rt_before = bed.server.gatekeeper_mut().stats();
        let laser_before = bed.server.gatekeeper_mut().laser_mut().stats();
        let mut verdicts = Vec::with_capacity(pairs.len());
        t.enter("gatekeeper.check", op, pairs.len() as u64);
        let start = Instant::now();
        {
            let rt = bed.server.gatekeeper_mut();
            for &(p, u) in &pairs {
                verdicts.push(rt.check(&bed.names[p as usize], &bed.users[u as usize]));
            }
        }
        let check_s = start.elapsed().as_secs_f64();
        t.exit();
        let rt_after = bed.server.gatekeeper_mut().stats();
        let laser_after = bed.server.gatekeeper_mut().laser_mut().stats();
        let passes = verdicts.iter().filter(|&&v| v).count() as u64;
        // The unoptimised twin replays the same checks, untimed, and must
        // agree on each.
        for (&(p, u), &v) in pairs.iter().zip(&verdicts) {
            let twin = bed
                .twin
                .check(&bed.names[p as usize], &bed.users[u as usize]);
            tally.check(twin == v, || {
                format!("round {n}: proj{p} for user {u} is {v} optimised, {twin} unoptimised")
            });
        }

        // --- one live project update and one stream upsert ---
        let p = (n * 7 + 1) % shape.projects;
        let json = project(p, 0.25 + 0.5 * bed.rng.gen::<f64>()).to_config_json();
        t.enter("gatekeeper.update_project", op, 1);
        let start = Instant::now();
        let updated = bed.server.gatekeeper_mut().update_project_json(&json);
        let update_us = start.elapsed().as_secs_f64() * 1e6;
        t.exit();
        tally.check(updated.is_ok(), || {
            format!("round {n}: project update rejected")
        });
        let _ = bed.twin.update_project_json(&json);
        let laser_projects: Vec<usize> = shape.laser_projects().collect();
        let upserts: Vec<(String, f64)> = (0..shape.upsert_keys)
            .map(|_| {
                let p = laser_projects[bed.rng.gen_range(0..laser_projects.len())];
                let u = bed.skewed_user() as u64 / 5 * 5;
                (
                    format!("proj{p}-{u}"),
                    if bed.rng.gen::<bool>() { 0.9 } else { 0.2 },
                )
            })
            .collect();
        bed.twin.laser_mut().stream_upsert(DATASET, upserts.clone());
        t.enter("laser.upsert", op, 1);
        bed.server
            .gatekeeper_mut()
            .laser_mut()
            .stream_upsert(DATASET, upserts);
        t.exit();

        // --- translation rebind, then device polls ---
        if n.is_multiple_of(shape.rebind_every) {
            bed.revision += 1;
            bed.server
                .update_translation(translation(bed.revision, bed.revision % 2 == 0));
        }
        let mobile_before = bed.server.stats();
        t.enter("mobileconfig.poll", op, shape.polls_per_round as u64);
        let start = Instant::now();
        for i in 0..shape.polls_per_round {
            let d = i % bed.devices.len();
            std::hint::black_box(bed.devices[d].poll(&mut bed.server));
        }
        let poll_s = start.elapsed().as_secs_f64();
        t.exit();
        let mobile_after = bed.server.stats();

        // --- known answers: projects, then what the devices now hold ---
        for u in (0..bed.users.len()).step_by((bed.users.len() / 100).max(1)) {
            let ctx = &bed.users[u];
            let rt = bed.server.gatekeeper_mut();
            let good = !rt.check("ka_none", ctx)
                && rt.check("ka_all", ctx)
                && rt.check("ka_employee", ctx) == ctx.employee
                && !rt.check("no_such_project", ctx);
            tally.check(good, || {
                format!("round {n}: known-answer verdict wrong for user {u}")
            });
        }
        let step = (shape.users / shape.devices as u64).max(1);
        for (d, dev) in bed.devices.iter().enumerate() {
            let employee = user(d as u64 * step).employee;
            let good = dev.get_bool("ka_all")
                && !dev.get_bool("ka_none")
                && dev.get_bool("ka_emp") == employee
                && dev.get_int("revision") == bed.revision;
            tally.check(good, || format!("round {n}: device {d} holds wrong values"));
        }

        bed.rounds.push(Round {
            traced,
            checks_per_s: ratio(pairs.len() as f64, check_s),
            polls_per_s: ratio(shape.polls_per_round as f64, poll_s),
            update_us,
            checks: rt_after.checks - rt_before.checks,
            passes,
            evals: rt_after.restraint_evals - rt_before.restraint_evals,
            cost_units: rt_after.cost_units - rt_before.cost_units,
            laser_reads: (laser_after.memory_hits + laser_after.flash_reads + laser_after.misses)
                - (laser_before.memory_hits + laser_before.flash_reads + laser_before.misses),
            laser_memory_hits: laser_after.memory_hits - laser_before.memory_hits,
            polls: mobile_after.pulls - mobile_before.pulls,
            not_modified: mobile_after.not_modified - mobile_before.not_modified,
            reply_bytes: mobile_after.reply_bytes - mobile_before.reply_bytes,
        });
        bed.tally = tally;
    }

    fn rounds(&self) -> usize {
        self.rounds.len()
    }

    fn min_rounds(&self) -> usize {
        self.shape.min_rounds
    }

    fn finish(mut self: Box<Self>, tr: &mut Tracer) -> Outcome {
        let shape = self.shape;
        eprintln!("  read path: {} rounds", self.rounds.len());
        let rounds = std::mem::take(&mut self.rounds);
        let of = |traced: bool, f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
            rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(f)
                .collect()
        };
        let mut end_to_end = Metrics::default();
        let untraced_rate = fast_quartile(&of(false, &|r| r.checks_per_s));
        end_to_end.put("gk_checks_per_s", untraced_rate);
        end_to_end.put(
            "mobile_polls_per_s",
            fast_quartile(&of(false, &|r| r.polls_per_s)),
        );
        end_to_end.put(
            "project_update_p50_us",
            median(&of(false, &|r| r.update_us)),
        );

        let mut per_layer = Metrics::default();
        if tr.enabled() {
            tr.resume();
            // Counts over the rounds that always run, so they repeat per seed.
            let exact = &rounds[..shape.min_rounds.min(rounds.len())];
            let sum = |f: &dyn Fn(&Round) -> u64| exact.iter().map(f).sum::<u64>() as f64;
            let checks = sum(&|r| r.checks);
            per_layer.put("gatekeeper.check_ns", tr.ns_per_call("gatekeeper.check"));
            per_layer.put(
                "gatekeeper.evals_per_check",
                ratio(sum(&|r| r.evals), checks),
            );
            per_layer.put(
                "gatekeeper.cost_units_per_check",
                ratio(sum(&|r| r.cost_units), checks),
            );
            per_layer.put(
                "gatekeeper.update_project_us",
                tr.ns_per_call("gatekeeper.update_project") / 1e3,
            );
            per_layer.put("gatekeeper.pass_ratio", ratio(sum(&|r| r.passes), checks));
            per_layer.put("laser.get_ns", laser_replay(&mut self, tr));
            per_layer.put(
                "laser.memory_hit_ratio",
                ratio(sum(&|r| r.laser_memory_hits), sum(&|r| r.laser_reads)),
            );
            per_layer.put("laser.upsert_us", tr.ns_per_call("laser.upsert") / 1e3);
            per_layer.put("mobileconfig.poll_ns", tr.ns_per_call("mobileconfig.poll"));
            per_layer.put(
                "mobileconfig.not_modified_ratio",
                ratio(sum(&|r| r.not_modified), sum(&|r| r.polls)),
            );
            per_layer.put(
                "mobileconfig.reply_bytes_per_poll",
                ratio(sum(&|r| r.reply_bytes), sum(&|r| r.polls)),
            );
        }
        Outcome {
            end_to_end,
            per_layer,
            tally: self.tally,
            setup_s: self.setup_s,
            untraced_rate,
            traced_rate: fast_quartile(&of(true, &|r| r.checks_per_s)),
        }
    }
}

/// `laser` alone: the workload's key distribution against a clone of the
/// store (so the replay does not warm the real memory tier).
fn laser_replay(bed: &mut Run, tr: &mut Tracer) -> f64 {
    let laser_projects: Vec<usize> = bed.shape.laser_projects().collect();
    let keys: Vec<String> = (0..50_000)
        .map(|_| {
            let p = laser_projects[bed.rng.gen_range(0..laser_projects.len())];
            format!("proj{p}-{}", bed.skewed_user())
        })
        .collect();
    let mut laser = bed.server.gatekeeper_mut().laser_mut().clone();
    tr.enter("laser.get", 0, keys.len() as u64);
    for k in &keys {
        std::hint::black_box(laser.get(DATASET, k));
    }
    tr.exit();
    tr.ns_per_call("laser.get")
}
