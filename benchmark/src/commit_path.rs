//! The commit path: `author_day` and `big_repo_automation`.
//!
//! Closed loop, one client: the landing strip is serial by design (§3.6),
//! so the next commit is authored only after the previous one's tailer
//! drain returned. One operation is `SourceDiff::against` →
//! `LandingStrip::submit`/`process_one` → `GitTailer::drain` (or
//! `Mutator::update_raw` → drain for a raw config), timed as one interval.

use std::collections::BTreeSet;
use std::time::Instant;

use cdsl::{Compiler, ErrorKind, Loader, ParseCache};
use configerator::landing::LandError;
use configerator::{
    CompileOptions, CompileStats, ConfigUpdate, ConfigeratorService, GitTailer, LandingStrip,
    Mutator, ServiceError, SourceDiff,
};
use gitstore::multirepo::RepoId;
use gitstore::repo::{Change, Repository};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::corpus::{self, artifact_weight, entry_index, Bad, Changes, Corpus, Edit};
use crate::harness::{
    self, median, percentile, ratio, Metrics, Outcome, Rounds, Size, Tally, Tracer,
};

/// The input properties a commit workload fixes.
#[derive(Clone, Copy)]
pub struct Shape {
    /// CDSL entries in the corpus (0: no config programs at all).
    pub entries: usize,
    /// Plain files the repository is grown by, sharded `team/sub/` like
    /// `workload::commits::CommitReplay`'s paths.
    pub sharded_files: usize,
    /// Raw configs automation rewrites.
    pub raw_configs: usize,
    /// All raw configs in one flat `traffic/` directory (wide-directory
    /// tree diff) instead of 20 per directory.
    pub raw_flat: bool,
    /// Operations per 100: leaf edit, raw update, shared-module edit,
    /// hot-module edit, seeded-bad. Every block of 100 holds exactly this
    /// mix; the seed shuffles the order and picks the targets.
    pub deck: [usize; 5],
    /// Operations per round (a multiple of 100 divided by what `deck`
    /// allows).
    pub block: usize,
    /// Operations always run, whatever the time budget (percentiles and
    /// the exact per-layer counts are taken over at least these).
    pub min_ops: usize,
}

pub const AUTHOR_DAY: Shape = Shape {
    entries: 2_000,
    sharded_files: 0,
    raw_configs: 400,
    raw_flat: false,
    deck: [58, 20, 12, 8, 2],
    block: 100,
    min_ops: 600,
};

pub const BIG_REPO_AUTOMATION: Shape = Shape {
    entries: 0,
    sharded_files: 100_000,
    raw_configs: 2_000,
    raw_flat: true,
    deck: [0, 100, 0, 0, 0],
    block: 20,
    min_ops: 200,
};

impl Shape {
    pub fn sized(self, size: Size) -> Shape {
        match size {
            Size::Full => self,
            Size::Smoke => self.smoke(),
            Size::Probe => Shape {
                min_ops: 1600,
                ..self.smoke()
            },
        }
    }

    /// The `--smoke` size: about a twentieth, same mix.
    fn smoke(self) -> Shape {
        Shape {
            entries: self.entries / 20,
            sharded_files: self.sharded_files / 20,
            raw_configs: (self.raw_configs / 20).max(4),
            min_ops: 100,
            ..self
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Leaf,
    Raw,
    Shared,
    Hot,
    Bad,
}

impl Class {
    /// A landed edit of config source (the classes that plan and compile).
    fn is_source(self) -> bool {
        matches!(self, Class::Leaf | Class::Shared | Class::Hot)
    }
}

const CLASSES: [Class; 5] = [
    Class::Leaf,
    Class::Raw,
    Class::Shared,
    Class::Hot,
    Class::Bad,
];

/// Everything measured about one operation.
struct OpRecord {
    class: Class,
    wall_ns: u64,
    traced: bool,
    stats: CompileStats,
    user_bytes: usize,
}

/// The system under test, the generator's model of it, and everything
/// measured so far.
struct Run {
    shape: Shape,
    svc: ConfigeratorService,
    strip: LandingStrip,
    tailer: GitTailer,
    mutator: Mutator,
    corpus: Corpus,
    raw_names: Vec<String>,
    rng: SmallRng,
    /// `gitstore` alone: a clone of the repository that replays each landed
    /// commit in the traced run.
    shadow: Option<Repository>,
    tally: Tally,
    records: Vec<OpRecord>,
    git: GitCounts,
    blocks: u64,
    setup_s: f64,
}

fn raw_name(shape: &Shape, i: usize) -> String {
    if shape.raw_flat {
        format!("traffic/route{i:04}.json")
    } else {
        format!("automation/tool{:02}/cfg{:02}.json", i / 20, i % 20)
    }
}

/// A raw payload of 400 B – 1 KB (Fig 8's P50 region).
fn raw_payload(rng: &mut SmallRng, name: &str) -> String {
    let len = rng.gen_range(400..=1_000usize);
    let salt: u64 = rng.gen();
    let mut s = format!("{{\"cfg\":\"{name}\",\"salt\":{salt},\"pad\":\"");
    while s.len() < len {
        s.push('x');
    }
    s.push_str("\"}");
    s
}

struct SvcLoader<'a>(&'a ConfigeratorService);

impl Loader for SvcLoader<'_> {
    fn load(&self, path: &str) -> Option<String> {
        self.0.read_source(path)
    }
}

/// Sets up (timed; repeatedly if `repeat`) and returns the path ready to
/// step, a block of operations at a time.
pub fn start(shape: Shape, seed: u64, repeat: bool, traced: bool) -> Box<dyn Rounds> {
    let (mut run, setup_s) = harness::timed_setup(repeat, || build(shape, seed, traced));
    run.setup_s = setup_s;
    Box::new(run)
}

/// Builds the repository and corpus: everything before timing starts.
fn build(shape: Shape, seed: u64, traced: bool) -> Run {
    // One compile worker in the traced run so cache counts repeat exactly.
    let options = CompileOptions {
        workers: if traced { 1 } else { 0 },
        ..CompileOptions::default()
    };
    let mut svc = ConfigeratorService::with_options(options);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mutator = Mutator::new("bench");
    let mut tally = Tally::default();

    // Raw configs first, while commits are cheap.
    let raw_names: Vec<String> = (0..shape.raw_configs)
        .map(|i| raw_name(&shape, i))
        .collect();
    for name in &raw_names {
        let payload = raw_payload(&mut rng, name);
        mutator
            .update_raw(&mut svc, name, "seed", |_| payload)
            .expect("seed raw config");
    }

    let corpus = Corpus::new(shape.entries);
    if shape.entries > 0 {
        svc.commit_source("seed", "corpus", corpus.tree())
            .expect("corpus compiles");
        for e in 0..shape.entries {
            let got = svc
                .artifact(&corpus::entry_name(e))
                .and_then(|a| artifact_weight(a.json.as_bytes()));
            tally.check(got == Some(corpus.weight(e)), || {
                format!("setup: entry {e} weight {got:?} != {}", corpus.weight(e))
            });
        }
    }

    // Grow the repository with plain files, 20,000 per commit.
    let mut next = 0usize;
    while next < shape.sharded_files {
        let batch = (shape.sharded_files - next).min(20_000);
        let changes: Changes = (next..next + batch)
            .map(|n| {
                let path = format!("team{}/sub{}/config_{n}.json", n % 40, (n / 40) % 25);
                (path, Some("x".repeat(64)))
            })
            .collect();
        svc.commit_source("seed", "grow", changes).expect("grow");
        next += batch;
    }

    let mut tailer = GitTailer::new();
    let initial = tailer.drain(&svc);
    tally.check(initial.len() == shape.entries + shape.raw_configs, || {
        format!("setup: first drain emitted {} updates", initial.len())
    });
    let shadow = traced.then(|| svc.repo().repo(RepoId(0)).clone());
    Run {
        shape,
        svc,
        strip: LandingStrip::new(),
        tailer,
        mutator,
        corpus,
        raw_names,
        rng,
        shadow,
        tally,
        records: Vec::new(),
        git: GitCounts::default(),
        blocks: 0,
        setup_s: 0.0,
    }
}

/// The planned operation: class plus target.
enum Op {
    Source(Class, Edit),
    Raw(usize),
    Bad(usize, Bad),
}

impl Run {
    /// One shuffled block of operations in the shape's exact mix.
    fn deal(&mut self) -> Vec<Op> {
        let mut classes: Vec<Class> = Vec::with_capacity(self.shape.block);
        for (class, n) in CLASSES.iter().zip(self.shape.deck) {
            classes.extend(std::iter::repeat_n(*class, n * self.shape.block / 100));
        }
        classes.shuffle(&mut self.rng);
        let entries = self.shape.entries.max(1);
        classes
            .into_iter()
            .map(|class| match class {
                Class::Leaf => Op::Source(class, Edit::Entry(self.rng.gen_range(0..entries))),
                Class::Shared => {
                    Op::Source(class, Edit::Module(self.rng.gen_range(0..corpus::MODULES)))
                }
                Class::Hot => Op::Source(class, Edit::Hot),
                Class::Raw => Op::Raw(self.rng.gen_range(0..self.raw_names.len())),
                Class::Bad => {
                    let bad = [Bad::Validator, Bad::Syntax, Bad::MissingImport]
                        [self.rng.gen_range(0..3usize)];
                    Op::Bad(self.rng.gen_range(0..entries), bad)
                }
            })
            .collect()
    }

    /// Lands `changes` through the strip and drains the tailer: the timed
    /// interval of a source operation.
    #[allow(clippy::type_complexity)]
    fn land(
        &mut self,
        tr: &mut Tracer,
        op_id: u64,
        changes: Changes,
    ) -> (
        u64,
        Result<configerator::CommitReport, LandError>,
        Vec<ConfigUpdate>,
    ) {
        let start = Instant::now();
        tr.enter("configerator.diff_against", op_id, 1);
        let diff = SourceDiff::against(&self.svc, "author", "edit", changes);
        tr.exit();
        tr.enter("configerator.land", op_id, 1);
        self.strip.submit(diff);
        let res = self
            .strip
            .process_one(&mut self.svc)
            .expect("just submitted")
            .map_err(|(_, e)| e);
        tr.exit();
        tr.enter("configerator.tailer_drain", op_id, 1);
        let updates = self.tailer.drain(&self.svc);
        tr.exit();
        (start.elapsed().as_nanos() as u64, res, updates)
    }

    /// `gitstore` alone: replays landed commit `id` onto the shadow
    /// repository and times the tree diff the tailer ran.
    fn replay_gitstore(&mut self, tr: &mut Tracer, op_id: u64) {
        let Some(shadow) = self.shadow.as_mut() else {
            return;
        };
        let repo = self.svc.repo().repo(RepoId(0));
        let head = repo.head().expect("landed");
        let info = repo.commit_info(head).expect("head commit").clone();
        let Some(&prev) = info.parents.first() else {
            return;
        };
        tr.enter("gitstore.diff_commits", op_id, 1);
        let diff = repo.diff_commits(prev, head).expect("diff");
        tr.exit();
        let changes: Vec<Change> = diff
            .iter()
            .map(|c| match c.new {
                Some(_) => Change::put(c.path.clone(), repo.read(head, &c.path).expect("blob")),
                None => Change::delete(c.path.clone()),
            })
            .collect();
        let odb_before = shadow.odb().total_bytes();
        tr.enter("gitstore.commit", op_id, 1);
        let out = shadow
            .commit(&info.author, &info.message, info.timestamp, changes)
            .expect("shadow commit");
        tr.exit();
        self.git.commits += 1;
        self.git.index_bytes += out.index_bytes as u64;
        self.git.trees += out.trees_written as u64;
        self.git.blobs += out.blobs_written as u64;
        self.git.odb_bytes += (shadow.odb().total_bytes() - odb_before) as u64;
    }
}

#[derive(Default)]
struct GitCounts {
    commits: u64,
    index_bytes: u64,
    trees: u64,
    blobs: u64,
    odb_bytes: u64,
}

/// The class of a bounce, for the seeded-bad check.
fn bounce_class(err: &LandError) -> String {
    let kind_name = |k: &ErrorKind| -> &'static str {
        match k {
            ErrorKind::Lex(_) | ErrorKind::Parse(_) => "syntax",
            ErrorKind::MissingSource(_) => "missing-source",
            ErrorKind::Validation(_) => "validation",
            _ => "other-compile",
        }
    };
    match err {
        LandError::TrueConflict { .. } => "conflict".into(),
        LandError::Service(ServiceError::CompileMany(fails)) => fails
            .first()
            .map_or("compile".into(), |f| kind_name(&f.error.kind).into()),
        LandError::Service(ServiceError::Compile { error, .. }) => kind_name(&error.kind).into(),
        LandError::Service(ServiceError::Verify(report)) => report
            .findings
            .iter()
            .find(|f| f.severity == cdsl::Severity::Error)
            .map_or("verify".into(), |f| format!("verify:{}", f.check)),
        LandError::Service(other) => format!("service:{other}"),
    }
}

/// The bounce each seeded-bad kind must produce.
fn expected_bounce(bad: Bad) -> &'static [&'static str] {
    match bad {
        Bad::Validator => &["validation"],
        Bad::Syntax => &["syntax"],
        Bad::MissingImport => &["missing-source", "verify:reachability"],
    }
}

impl Rounds for Run {
    /// One block of operations.
    fn step(&mut self, tr: &mut Tracer) {
        let traced = tr.start_round(self.blocks as usize);
        let t = tr;
        for op in self.deal() {
            let op_id = self.records.len() as u64;
            let (class, wall_ns, stats, user_bytes) = match op {
                Op::Source(class, edit) => {
                    let changes = self.corpus.edit(edit, 1);
                    let user_bytes = changes.values().flatten().map(String::len).sum();
                    let (wall_ns, res, updates) = self.land(t, op_id, changes);
                    let stats = match res {
                        Ok(report) => {
                            self.corpus.landed(edit);
                            check_landed(
                                &self.svc,
                                &self.corpus,
                                edit,
                                &report,
                                &updates,
                                &mut self.tally,
                            );
                            report.stats
                        }
                        Err(e) => {
                            self.tally
                                .fail(|| format!("op {op_id} {edit:?} bounced: {e}"));
                            CompileStats::default()
                        }
                    };
                    if traced {
                        // A dry-run plan of the same kind of edit, on
                        // sources that never land (so it cannot warm the
                        // parse cache for a real commit).
                        let dry = self.corpus.edit(edit, 1_000_000);
                        t.enter("configerator.plan", op_id, 1);
                        let planned = self.svc.check_changes(&dry);
                        t.exit();
                        self.tally.check(planned.is_ok(), || {
                            format!("op {op_id}: dry-run plan failed")
                        });
                    }
                    (class, wall_ns, stats, user_bytes)
                }
                Op::Raw(i) => {
                    let name = self.raw_names[i].clone();
                    let payload = raw_payload(&mut self.rng, &name);
                    let start = Instant::now();
                    t.enter("configerator.land", op_id, 1);
                    let res = self
                        .mutator
                        .update_raw(&mut self.svc, &name, "shift", |_| payload.clone());
                    t.exit();
                    t.enter("configerator.tailer_drain", op_id, 1);
                    let updates = self.tailer.drain(&self.svc);
                    t.exit();
                    let wall_ns = start.elapsed().as_nanos() as u64;
                    let good = res.is_ok()
                        && updates.len() == 1
                        && updates[0].name == name
                        && updates[0].data[..] == *payload.as_bytes();
                    self.tally.check(good, || {
                        format!("op {op_id}: raw update of {name} not drained")
                    });
                    (Class::Raw, wall_ns, CompileStats::default(), payload.len())
                }
                Op::Bad(e, bad) => {
                    let name = corpus::entry_name(e);
                    let before = self.svc.artifact(&name).map(|a| a.json.clone());
                    let changes = self.corpus.bad_edit(e, bad);
                    let (wall_ns, res, updates) = self.land(t, op_id, changes);
                    let bounced = match &res {
                        Ok(_) => "landed".to_string(),
                        Err(err) => bounce_class(err),
                    };
                    let unchanged = self.svc.artifact(&name).map(|a| a.json.clone()) == before;
                    self.tally.check(
                        expected_bounce(bad).contains(&bounced.as_str())
                            && updates.is_empty()
                            && unchanged,
                        || format!("op {op_id}: seeded-bad {bad:?} on entry {e}: {bounced}"),
                    );
                    (Class::Bad, wall_ns, CompileStats::default(), 0)
                }
            };
            if traced && class != Class::Bad {
                self.replay_gitstore(t, op_id);
            }
            self.records.push(OpRecord {
                class,
                wall_ns,
                traced,
                stats,
                user_bytes,
            });
        }
        self.blocks += 1;
    }

    fn rounds(&self) -> usize {
        self.blocks as usize
    }

    fn min_rounds(&self) -> usize {
        self.shape.min_ops.div_ceil(self.shape.block)
    }

    fn finish(self: Box<Self>, tr: &mut Tracer) -> Outcome {
        let records = &self.records;
        let mut end_to_end = Metrics::default();
        let walls_ms: Vec<f64> = records.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
        let total_s: f64 = walls_ms.iter().sum::<f64>() / 1e3;
        end_to_end.put("commit_p50_ms", median(&walls_ms));
        end_to_end.put("commit_p95_ms", percentile(&walls_ms, 95.0));
        end_to_end.put("commits_per_s", ratio(records.len() as f64, total_s));

        let rate_of = |traced: bool| {
            let of: Vec<&OpRecord> = records.iter().filter(|r| r.traced == traced).collect();
            let ns: u64 = of.iter().map(|r| r.wall_ns).sum();
            ratio(of.len() as f64, ns as f64 / 1e9)
        };
        let stats = self.strip.stats();
        let mut per_layer = Metrics::default();
        if tr.enabled() {
            tr.resume();
            per_layer = layer_metrics(&self, tr);
            per_layer.put("configerator.rejected", stats.failed as f64);
            per_layer.put("configerator.conflicts", stats.conflicts as f64);
        }
        eprintln!(
            "  commit path: {} ops, {total_s:.2} s inside operations ({} landed through the strip, {} bounced)",
            records.len(),
            stats.landed,
            stats.failed,
        );
        Outcome {
            end_to_end,
            per_layer,
            setup_s: self.setup_s,
            untraced_rate: rate_of(false),
            traced_rate: rate_of(true),
            tally: self.tally,
        }
    }
}

/// After a landed source edit every entry in its ripple must hold the
/// weight the generator computes natively, and the tailer must have drained
/// exactly the artifacts the commit changed, byte for byte. (An artifact in
/// the ripple may legitimately not change: a helper's two branches can
/// agree at the value where the branch flips.)
fn check_landed(
    svc: &ConfigeratorService,
    corpus: &Corpus,
    edit: Edit,
    report: &configerator::CommitReport,
    updates: &[ConfigUpdate],
    tally: &mut Tally,
) {
    let ripple = corpus.ripple(edit);
    let drained: BTreeSet<&str> = updates.iter().map(|u| u.name.as_str()).collect();
    let reported: BTreeSet<&str> = report.updated_configs.iter().map(String::as_str).collect();
    let mut good = drained == reported && report.stats.candidates == ripple.len();
    for &e in &ripple {
        let artifact = svc.artifact(&corpus::entry_name(e));
        good &= artifact.and_then(|a| artifact_weight(a.json.as_bytes())) == Some(corpus.weight(e));
    }
    for u in updates {
        let in_ripple = entry_index(&u.name).is_some_and(|e| ripple.binary_search(&e).is_ok());
        let current = svc.artifact(&u.name).map(|a| a.json.as_bytes());
        good &= !u.deleted && in_ripple && current == Some(&u.data[..]);
    }
    tally.check(good, || {
        format!(
            "{edit:?}: drained {} updates, reported {}, ripple {} (or a wrong weight)",
            updates.len(),
            reported.len(),
            ripple.len()
        )
    });
}

/// Per-layer metrics of the traced blocks: spans around the public calls,
/// counts from `CommitReport`, and the `cdsl`/`gitstore` replays.
fn layer_metrics(bed: &Run, tr: &mut Tracer) -> Metrics {
    let (records, git) = (&bed.records, &bed.git);
    let mut m = Metrics::default();
    let us = |ns: f64| ns / 1e3;
    // Exact counts come from the first `min_ops` operations, which always
    // run: they do not depend on how far the time budget reached.
    let exact = &records[..bed.shape.min_ops.min(records.len())];
    let source: Vec<&OpRecord> = exact.iter().filter(|r| r.class.is_source()).collect();
    let sum = |f: &dyn Fn(&CompileStats) -> u64| source.iter().map(|r| f(&r.stats)).sum::<u64>();
    let commits = source.len() as f64;
    let candidates = sum(&|s| s.candidates as u64) as f64;
    let compiled = sum(&|s| s.compiled as u64) as f64;
    let skipped = sum(&|s| s.skipped as u64) as f64;
    let hits = sum(&|s| s.parse_hits) as f64;
    let misses = sum(&|s| s.parse_misses) as f64;

    let land_us = us(tr.ns_per_call("configerator.land"));
    let git_commit_us = us(tr.ns_per_call("gitstore.commit"));
    // Compile and verify time as the service itself reports it per commit,
    // over the traced operations (one worker: CPU time equals wall).
    let traced: Vec<&OpRecord> = records.iter().filter(|r| r.traced).collect();
    let cdsl_us = ratio(
        traced
            .iter()
            .map(|r| (r.stats.compile_us + r.stats.verify_us) as f64)
            .sum(),
        traced.len() as f64,
    );
    let traced_source = traced.iter().filter(|r| r.class.is_source()).count() as f64;
    m.put(
        "configerator.diff_against_us",
        us(tr.ns_per_call("configerator.diff_against")),
    );
    m.put("configerator.land_us", land_us);
    m.put(
        "configerator.plan_us",
        us(tr.ns_per_call("configerator.plan")),
    );
    m.put("configerator.self_us", land_us - cdsl_us - git_commit_us);
    m.put(
        "configerator.tailer_drain_us",
        us(tr.ns_per_call("configerator.tailer_drain")),
    );
    m.put(
        "configerator.candidates_per_commit",
        ratio(candidates, commits),
    );
    m.put("configerator.compiled_per_commit", ratio(compiled, commits));
    m.put("configerator.skip_ratio", ratio(skipped, candidates));
    let class_p50 = |c: Class| {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| r.class == c)
            .map(|r| r.wall_ns as f64 / 1e6)
            .collect();
        median(&v)
    };
    m.put("configerator.leaf_p50_ms", class_p50(Class::Leaf));
    m.put("configerator.raw_p50_ms", class_p50(Class::Raw));
    m.put("configerator.ripple_p50_ms", class_p50(Class::Shared));
    m.put("configerator.hot_p50_ms", class_p50(Class::Hot));

    m.put(
        "cdsl.verify_us_per_commit",
        ratio(
            traced.iter().map(|r| r.stats.verify_us as f64).sum(),
            traced_source,
        ),
    );
    m.put(
        "cdsl.compile_cpu_us_per_commit",
        ratio(
            traced.iter().map(|r| r.stats.compile_us as f64).sum(),
            traced_source,
        ),
    );
    m.put("cdsl.parse_hit_ratio", ratio(hits, hits + misses));
    cdsl_replay(bed, tr, &mut m);

    let g = git.commits as f64;
    m.put("gitstore.commit_us", git_commit_us);
    m.put(
        "gitstore.index_bytes_per_commit",
        ratio(git.index_bytes as f64, g),
    );
    m.put("gitstore.trees_per_commit", ratio(git.trees as f64, g));
    m.put("gitstore.blobs_per_commit", ratio(git.blobs as f64, g));
    m.put(
        "gitstore.diff_commits_us",
        us(tr.ns_per_call("gitstore.diff_commits")),
    );
    let user_bytes: usize = traced.iter().map(|r| r.user_bytes).sum();
    m.put(
        "gitstore.odb_bytes_per_user_byte",
        ratio(git.odb_bytes as f64, user_bytes as f64),
    );
    gitstore_replay(bed, tr, &mut m);
    m
}

/// `cdsl` alone: cold and warm compiles of a sample of the corpus through
/// a loader over the repository head, and raw parse throughput.
fn cdsl_replay(bed: &Run, tr: &mut Tracer, m: &mut Metrics) {
    let n = bed.corpus.entries();
    if n == 0 {
        return;
    }
    let loader = SvcLoader(&bed.svc);
    let sample: Vec<String> = (0..n)
        .step_by((n / 100).max(1))
        .map(corpus::entry_path)
        .collect();
    let mut artifact_bytes = 0usize;
    tr.enter("cdsl.compile_cold", 0, sample.len() as u64);
    for path in &sample {
        let out = Compiler::new(&loader).compile(path).expect("cold compile");
        artifact_bytes += out.json.len();
    }
    tr.exit();
    let cache = ParseCache::new();
    for path in &sample {
        let _ = Compiler::new(&loader).with_cache(&cache).compile(path);
    }
    tr.enter("cdsl.compile_warm", 0, sample.len() as u64);
    for path in &sample {
        let out = Compiler::new(&loader).with_cache(&cache).compile(path);
        std::hint::black_box(&out);
    }
    tr.exit();
    // Parse throughput over the library modules, which are nearly all
    // function bodies.
    let sources: Vec<(String, String)> = std::iter::once(corpus::HOT_PATH.to_string())
        .chain((0..corpus::MODULES).map(corpus::module_path))
        .filter_map(|p| loader.load(&p).map(|s| (p, s)))
        .collect();
    let bytes: usize = sources.iter().map(|(_, s)| s.len()).sum();
    let reps = 5u64;
    tr.enter("cdsl.parse", 0, reps);
    for _ in 0..reps {
        for (path, src) in &sources {
            // A fresh cache parses every source: nothing is shared.
            let fresh = ParseCache::new();
            std::hint::black_box(fresh.module(src, path).is_ok());
        }
    }
    tr.exit();
    let parse_s = tr.totals("cdsl.parse").total_ns as f64 / 1e9;
    m.put(
        "cdsl.parse_mb_per_s",
        ratio((bytes as u64 * reps) as f64 / 1e6, parse_s),
    );
    m.put(
        "cdsl.compile_cold_us",
        tr.ns_per_call("cdsl.compile_cold") / 1e3,
    );
    m.put(
        "cdsl.compile_warm_us",
        tr.ns_per_call("cdsl.compile_warm") / 1e3,
    );
    m.put(
        "cdsl.artifact_bytes",
        ratio(artifact_bytes as f64, sample.len() as f64),
    );
}

/// `gitstore` alone: head reads over a sample of paths and SHA-1
/// throughput over one megabyte.
fn gitstore_replay(bed: &Run, tr: &mut Tracer, m: &mut Metrics) {
    let paths: Vec<String> = bed
        .raw_names
        .iter()
        .take(500)
        .map(|n| format!("raw/{n}"))
        .collect();
    let reps = 20u64;
    tr.enter("gitstore.read_head", 0, reps * paths.len() as u64);
    for _ in 0..reps {
        for p in &paths {
            std::hint::black_box(bed.svc.repo().read_head(p).is_ok());
        }
    }
    tr.exit();
    m.put(
        "gitstore.read_head_ns",
        tr.ns_per_call("gitstore.read_head"),
    );
    let buf = vec![0xA5u8; 1 << 20];
    let sha_reps = 8u64;
    tr.enter("gitstore.sha1", 0, sha_reps);
    for _ in 0..sha_reps {
        std::hint::black_box(gitstore::sha1::sha1(std::hint::black_box(&buf)));
    }
    tr.exit();
    let sha_s = tr.totals("gitstore.sha1").total_ns as f64 / 1e9;
    m.put(
        "gitstore.sha1_mb_per_s",
        ratio((sha_reps << 20) as f64 / 1e6, sha_s),
    );
}
