//! # bench — the experiment harness
//!
//! One module per experiment from the paper's evaluation (see the index in
//! `DESIGN.md` and the results log in `EXPERIMENTS.md`). The `repro`
//! binary dispatches to these.

pub mod audit_exp;
pub mod bench_json;
pub mod canary_exp;
pub mod chaos_exp;
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
    /// Config-population size for the statistics figures.
    pub fn configs(self) -> usize {
        match self {
            Scale::Small => 30_000,
            Scale::Full => 200_000,
        }
    }

    /// Servers per cluster for fleet simulations.
    pub fn servers_per_cluster(self) -> usize {
        match self {
            Scale::Small => 60,
            Scale::Full => 300,
        }
    }
}

/// An experiment's name and the function that runs it at a [`Scale`] and
/// seed (`repro <name> [--full] [--seed <n>]`; the seed defaults to 1, and
/// experiments without randomness of their own ignore it).
pub type Experiment = (&'static str, fn(Scale, u64) -> String);

/// Every experiment `repro <name>` runs, in presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig7", |s, _| stats_figs::fig7(s.configs())),
    ("fig8", |s, _| stats_figs::fig8(s.configs())),
    ("table1", |s, _| stats_figs::table1(s.configs())),
    ("table2", |s, _| stats_figs::table2(s.configs())),
    ("table3", |s, _| stats_figs::table3(s.configs())),
    ("fig9", |s, _| stats_figs::fig9(s.configs())),
    ("fig10", |s, _| stats_figs::fig10(s.configs())),
    ("headline", |s, _| stats_figs::headline(s.configs())),
    ("fig11", |_, _| stats_figs::fig11()),
    ("fig12", |_, _| stats_figs::fig12()),
    ("fig13", |s, _| fig13::fig13(s == Scale::Full)),
    ("contention", |_, _| fig13::contention(16, 8)),
    ("partitioning", |s, _| {
        let files = match s {
            Scale::Small => 40_000,
            Scale::Full => 150_000,
        };
        fig13::partitioning(files, 4, 40)
    }),
    ("fig14", |s, _| distribution::fig14(s.servers_per_cluster())),
    ("pushpull", |s, _| {
        distribution::pushpull(s.servers_per_cluster())
    }),
    ("packagevessel", |s, _| {
        let package_mb = match s {
            Scale::Small => 128,
            Scale::Full => 512,
        };
        distribution::packagevessel(s.servers_per_cluster(), package_mb)
    }),
    ("tree_vs_pv", |s, _| {
        distribution::tree_vs_pv(s.servers_per_cluster().min(100))
    }),
    ("fig15", |_, _| gatekeeper_exp::fig15()),
    ("gk_opt", |_, _| gatekeeper_exp::optimizer_ablation()),
    ("rollout", |_, _| gatekeeper_exp::rollout()),
    ("incidents", |s, _| {
        incidents::report(match s {
            Scale::Small => 60,
            Scale::Full => 200,
        })
    }),
    ("mobile", |_, _| mobile::bandwidth(200, 30, 10)),
    ("canary_timing", |_, _| mobile::canary_timing()),
    ("canary", |_, seed| canary_exp::report(seed)),
    ("audit", |_, seed| audit_exp::report(seed)),
    ("chaos", |s, _| {
        chaos_exp::campaign(match s {
            Scale::Small => 24,
            Scale::Full => 60,
        })
    }),
    ("losssweep", |_, seed| loss_exp::losssweep(seed)),
    ("laser", |_, seed| laser_exp::laser(seed)),
    ("compile", |s, _| compile_exp::compile(s)),
    ("verify", |_, _| verify_exp::verify(false)),
    ("fleet", |_, _| fleet_exp::fleet(false)),
    ("health", |_, seed| health_exp::report(seed)),
    ("storm", |_, seed| storm_exp::report(seed)),
    ("trace", |_, seed| trace_exp::trace(seed, false)),
];

/// Runs one named experiment and returns its report.
pub fn run_experiment(name: &str, scale: Scale, seed: u64) -> Option<String> {
    let (_, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name)?;
    Some(run(scale, seed))
}
