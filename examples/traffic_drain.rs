//! Application-level traffic control (§2): an automation tool uses the
//! Mutator API to shift traffic weights between regions, and an emergency
//! drain is a single config change that every load balancer sees within
//! the distribution tree's propagation latency — measured here on a
//! simulated fleet.
//!
//! Run with: `cargo run --example traffic_drain`

use bytes::Bytes;
use configerator::mutator::Mutator;
use configerator::stack::Stack;
use simnet::prelude::*;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::proxy::ProxyActor;

fn main() {
    // Part 1: the control plane. An automation tool rebalances traffic
    // weights with mutator commits (no human in the loop — 89% of raw
    // config updates are automated, §6.1).
    let mut stack = Stack::new(2);
    let shifter = Mutator::new("traffic-shifter");
    shifter
        .update_raw(stack.master_mut(), "traffic/weights.json", "init", |_| {
            "{\"atn\": 50, \"prn\": 50}".to_string()
        })
        .expect("initial weights");
    stack.pump();
    for step in 1..=3 {
        shifter
            .update_raw(
                stack.master_mut(),
                "traffic/weights.json",
                "rebalance",
                |cur| {
                    let cur = cur.expect("weights exist");
                    let atn = 50 - step * 15;
                    println!("shift {step}: {cur} → atn={atn}");
                    format!("{{\"atn\": {atn}, \"prn\": {}}}", 100 - atn)
                },
            )
            .expect("shift");
        stack.pump();
    }
    println!(
        "final weights at master: {}",
        stack
            .master()
            .artifact("traffic/weights.json")
            .unwrap()
            .json
    );

    // Part 2: the data plane. How fast does an emergency drain reach every
    // load balancer? Measure on a simulated 3-region fleet.
    let topo = Topology::symmetric(3, 2, 80);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), 9);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 2,
        subscriptions: vec!["traffic/weights.json".to_string()],
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    sim.run_for(SimDuration::from_secs(1));

    let drain = "{\"atn\": 0, \"prn\": 100}";
    let now = sim.now();
    zeus.write_at(&mut sim, now, "traffic/weights.json", Bytes::from(drain));
    sim.run_for(SimDuration::from_secs(5));

    let coverage = zeus.coverage(&sim, "traffic/weights.json", drain.as_bytes());
    let s = sim
        .metrics()
        .summary("zeus.propagation_s")
        .expect("propagation");
    println!(
        "\nemergency drain \"atn → 0\" reached {:.1}% of {} load balancers",
        coverage * 100.0,
        zeus.proxies.len()
    );
    println!(
        "propagation: p50 {:.0} ms, p95 {:.0} ms, max {:.0} ms",
        s.p50 * 1e3,
        s.p95 * 1e3,
        s.max * 1e3
    );
    // Spot-check one proxy's view.
    let one: &ProxyActor = sim.actor(zeus.proxies[0]).expect("proxy");
    println!(
        "one load balancer reads: {}",
        String::from_utf8_lossy(&one.read("traffic/weights.json").unwrap().data)
    );
    assert_eq!(coverage, 1.0);
}
