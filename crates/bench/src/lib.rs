//! # bench — the experiment harness
//!
//! One module per experiment from the paper's evaluation (see the index in
//! `DESIGN.md` and the results log in `EXPERIMENTS.md`). The `repro`
//! binary dispatches to these.

pub mod audit_exp;
pub mod bench_json;
pub mod canary_exp;
pub mod chaos_exp;
pub mod check;
pub mod compile_exp;
pub mod distribution;
pub mod fig13;
pub mod fleet_exp;
pub mod gatekeeper_exp;
pub mod health_exp;
pub mod incidents;
pub mod laser_exp;
pub mod loss_exp;
pub mod mobile;
pub mod stats_figs;
pub mod storm_exp;
pub mod trace_exp;
pub mod verify_exp;

/// Scale presets for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: minutes of wall time, smaller fleets and repositories.
    Small,
    /// Full: the sizes quoted in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// The value for this scale.
    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }

    /// Config-population size for the statistics figures.
    pub fn configs(self) -> usize {
        self.pick(30_000, 200_000)
    }

    /// Servers per cluster for fleet simulations.
    pub fn servers_per_cluster(self) -> usize {
        self.pick(60, 300)
    }
}

/// One verdict an experiment reaches: a named predicate over its run.
/// Every PASS/FAIL an experiment prints is one of these, so `repro` can
/// exit nonzero on a failing one and `repro check` can name it.
#[derive(Debug, PartialEq)]
pub struct Gate {
    /// Short name, unique within its report.
    pub name: String,
    /// Whether the predicate held.
    pub holds: bool,
    /// The measured values behind the verdict.
    pub detail: String,
    /// Judged on wall-clock time, so it depends on the host
    /// (`repro check --bless` skips these).
    pub wall: bool,
}

impl Gate {
    /// A gate over virtual (deterministic) quantities.
    pub fn new(name: impl Into<String>, holds: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name: name.into(),
            holds,
            detail: detail.into(),
            wall: false,
        }
    }

    /// A gate judged on wall-clock time.
    pub fn wall(name: impl Into<String>, holds: bool, detail: impl Into<String>) -> Gate {
        Gate {
            wall: true,
            ..Gate::new(name, holds, detail)
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gate {}: {}", self.name, verdict(self.holds))?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// A chaos invariant's verdict, as a gate.
impl From<&simnet::chaos::Verdict> for Gate {
    fn from(v: &simnet::chaos::Verdict) -> Gate {
        let detail = v.failure.as_ref().or(v.note.as_ref());
        Gate::new(v.name, v.ok(), detail.cloned().unwrap_or_default())
    }
}

/// The word a report prints for a verdict.
pub fn verdict(holds: bool) -> &'static str {
    if holds {
        "PASS"
    } else {
        "FAIL"
    }
}

/// What one experiment run produced.
#[derive(Debug, PartialEq)]
pub struct Report {
    /// Stdout: deterministic per seed wherever a golden covers it.
    pub text: String,
    /// Machine-dependent lines for stderr (timings, files written).
    pub wall: Vec<String>,
    /// Every verdict the run reached.
    pub gates: Vec<Gate>,
}

impl Report {
    /// A report without wall lines.
    pub fn new(text: String, gates: Vec<Gate>) -> Report {
        Report {
            text,
            wall: Vec::new(),
            gates,
        }
    }

    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.holds)
    }
}

impl From<String> for Report {
    fn from(text: String) -> Report {
        Report::new(text, Vec::new())
    }
}

/// An experiment's name and the function that runs it at a [`Scale`] and
/// seed (`repro <name> [--full] [--seed <n>]`; the seed defaults to 1, and
/// experiments without randomness of their own ignore it).
pub type Experiment = (&'static str, fn(Scale, u64) -> Report);

/// Every experiment `repro <name>` runs, in presentation order. A variant
/// that a golden pins (a quieter or differently sized run) is an entry of
/// its own, not a flag.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig7", |s, _| stats_figs::fig7(s.configs()).into()),
    ("fig8", |s, _| stats_figs::fig8(s.configs()).into()),
    ("table1", |s, _| stats_figs::table1(s.configs()).into()),
    ("table2", |s, _| stats_figs::table2(s.configs()).into()),
    ("table3", |s, _| stats_figs::table3(s.configs()).into()),
    ("fig9", |s, _| stats_figs::fig9(s.configs()).into()),
    ("fig10", |s, _| stats_figs::fig10(s.configs()).into()),
    ("headline", |s, _| stats_figs::headline(s.configs()).into()),
    ("fig11", |_, _| stats_figs::fig11().into()),
    ("fig12", |_, _| stats_figs::fig12().into()),
    ("fig13", |s, _| fig13::fig13(s == Scale::Full).into()),
    ("contention", |_, _| fig13::contention(16, 8).into()),
    ("partitioning", |s, _| {
        fig13::partitioning(s.pick(40_000, 150_000), 4, 40).into()
    }),
    ("fig14", |s, _| {
        distribution::fig14(s.servers_per_cluster()).into()
    }),
    ("pushpull", |s, _| {
        distribution::pushpull(s.servers_per_cluster()).into()
    }),
    ("packagevessel", |s, _| {
        distribution::packagevessel(s.servers_per_cluster(), s.pick(128, 512)).into()
    }),
    ("tree_vs_pv", |s, _| {
        distribution::tree_vs_pv(s.servers_per_cluster().min(100)).into()
    }),
    ("fig15", |_, _| gatekeeper_exp::fig15().into()),
    ("gk_opt", |_, _| gatekeeper_exp::optimizer_ablation().into()),
    ("rollout", |_, _| gatekeeper_exp::rollout().into()),
    ("incidents", |s, _| {
        incidents::report(s.pick(60, 200)).into()
    }),
    ("mobile", |_, _| mobile::bandwidth(200, 30, 10).into()),
    ("canary_timing", |_, _| mobile::canary_timing().into()),
    ("canary", |_, seed| canary_exp::report(seed)),
    ("audit", |_, seed| audit_exp::report(seed)),
    ("chaos", |s, _| chaos_exp::campaign(s.pick(24, 60))),
    ("losssweep", |_, seed| loss_exp::losssweep(seed).into()),
    ("laser", |_, seed| laser_exp::laser(seed)),
    ("compile", |s, _| compile_exp::compile(s)),
    ("verify", |_, _| verify_exp::verify(false)),
    // Without the per-commit log.
    ("verify_check", |_, _| verify_exp::verify(true)),
    ("fleet", |_, _| fleet_exp::fleet()),
    // Virtual-time fields of the 1k, 5k and 100k fleets only.
    ("fleet_check", |_, _| fleet_exp::fleet_check().into()),
    // A million MobileConfig clients as per-cluster cohorts.
    ("fleet_mobile", |_, _| {
        fleet_exp::fleet_mobile(1_000_000).into()
    }),
    ("health", |_, seed| health_exp::report(seed).into()),
    ("storm", |_, seed| storm_exp::report(seed).into()),
    ("trace", |_, seed| trace_exp::trace(seed, false).into()),
    ("trace_chaos", |_, seed| trace_exp::trace(seed, true).into()),
    ("metrics", |_, seed| trace_exp::metrics(seed, false).into()),
    ("metrics_chaos", |_, seed| {
        chaos_exp::export_metrics(seed).into()
    }),
];

/// Entries whose stdout is a machine-diffable snapshot (Prometheus text),
/// printed without the banner.
const BARE: &[&str] = &["metrics", "metrics_chaos"];

/// Runs one named experiment. The report's text is exactly what
/// `repro <name>` prints on stdout: the banner, the report, a newline.
pub fn run_experiment(name: &str, scale: Scale, seed: u64) -> Option<Report> {
    run_in(EXPERIMENTS, name, scale, seed)
}

/// [`run_experiment`] over any table of entries.
fn run_in(entries: &[Experiment], name: &str, scale: Scale, seed: u64) -> Option<Report> {
    let (name, run) = entries.iter().find(|(n, _)| *n == name)?;
    let report = run(scale, seed);
    Some(if BARE.contains(name) {
        report
    } else {
        with_banner(name, report)
    })
}

/// Frames a report's text the way `repro` prints it.
pub fn with_banner(name: &str, report: Report) -> Report {
    let rule = "==============================================================";
    Report {
        text: format!("{rule}\n== {name}\n{rule}\n{}\n", report.text),
        ..report
    }
}
