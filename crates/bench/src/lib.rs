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
pub mod perf_exp;
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

/// An experiment's name and the function that runs it at a [`Scale`].
pub type Experiment = (&'static str, fn(Scale) -> String);

/// Every experiment `repro <name>` runs, in presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig7", |s| stats_figs::fig7(s.configs())),
    ("fig8", |s| stats_figs::fig8(s.configs())),
    ("table1", |s| stats_figs::table1(s.configs())),
    ("table2", |s| stats_figs::table2(s.configs())),
    ("table3", |s| stats_figs::table3(s.configs())),
    ("fig9", |s| stats_figs::fig9(s.configs())),
    ("fig10", |s| stats_figs::fig10(s.configs())),
    ("headline", |s| stats_figs::headline(s.configs())),
    ("fig11", |_| stats_figs::fig11()),
    ("fig12", |_| stats_figs::fig12()),
    ("fig13", |s| fig13::fig13(s == Scale::Full)),
    ("contention", |_| fig13::contention(16, 8)),
    ("partitioning", |s| {
        let files = match s {
            Scale::Small => 40_000,
            Scale::Full => 150_000,
        };
        fig13::partitioning(files, 4, 40)
    }),
    ("fig14", |s| distribution::fig14(s.servers_per_cluster())),
    ("pushpull", |s| {
        distribution::pushpull(s.servers_per_cluster())
    }),
    ("packagevessel", |s| {
        let package_mb = match s {
            Scale::Small => 128,
            Scale::Full => 512,
        };
        distribution::packagevessel(s.servers_per_cluster(), package_mb)
    }),
    ("tree_vs_pv", |s| {
        distribution::tree_vs_pv(s.servers_per_cluster().min(100))
    }),
    ("fig15", |_| gatekeeper_exp::fig15()),
    ("gk_opt", |_| gatekeeper_exp::optimizer_ablation()),
    ("rollout", |_| gatekeeper_exp::rollout()),
    ("incidents", |s| {
        incidents::report(match s {
            Scale::Small => 60,
            Scale::Full => 200,
        })
    }),
    ("mobile", |_| mobile::bandwidth(200, 30, 10)),
    ("canary_timing", |_| mobile::canary_timing()),
    ("canary", |_| canary_exp::report(1)),
    ("audit", |_| audit_exp::report(1)),
    ("chaos", |s| {
        chaos_exp::campaign(match s {
            Scale::Small => 24,
            Scale::Full => 60,
        })
    }),
    ("losssweep", |_| loss_exp::losssweep(1)),
    ("laser", |_| laser_exp::laser(1)),
    ("compile", compile_exp::compile),
    ("verify", |_| verify_exp::verify(false)),
    ("perf", |_| perf_exp::perf(false)),
    ("fleet", |_| fleet_exp::fleet(false)),
    ("health", |_| health_exp::report(1)),
    ("storm", |_| storm_exp::report(1)),
];

/// Runs one named experiment and returns its report.
pub fn run_experiment(name: &str, scale: Scale) -> Option<String> {
    let (_, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name)?;
    Some(run(scale))
}
