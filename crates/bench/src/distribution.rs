//! Distribution experiments: Figure 14 (end-to-end propagation latency),
//! the push-vs-pull comparison (§3.4), and PackageVessel (§3.5).

use bytes::Bytes;
use packagevessel::prelude::*;
use simnet::prelude::*;
use workload::paper;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::pull::{PullClientActor, PullMsg, PullServerActor};

fn fleet_sim(seed: u64, regions: usize, clusters: usize, servers: usize) -> Sim {
    let topo = Topology::symmetric(regions, clusters, servers);
    Sim::new(topo, NetConfig::datacenter(), seed)
}

/// Figure 14: commit → fleet propagation latency and its load dependence.
///
/// The paper's ~14.5 s baseline decomposes into ~5 s git commit, ~5 s
/// tailer pickup, and ~4.5 s tree propagation. Our git substrate commits in
/// milliseconds at laptop scale, so we report each component separately:
/// the tree propagation is *measured* from the simulated fleet (including
/// its growth under load), and the commit/tailer components are taken from
/// the Fig 13 measurement plus the tailer poll interval.
pub fn fig14(scale_servers: usize) -> String {
    let mut out = String::from(
        "Figure 14: end-to-end commit→fleet propagation latency\n\
         paper: ~14.5 s baseline = 5 s git commit + 5 s tailer + 4.5 s\n\
         tree propagation; latency rises with load (daily/weekly pattern).\n\n",
    );
    // Tree propagation, measured per load level (writes/second offered to
    // the leader). The diurnal pattern of Fig 14 is this load dependence.
    out.push_str("tree propagation vs offered load (measured on simnet;\n");
    out.push_str("25 KB configs — the P95 size — over 1 Gb/s links):\n");
    out.push_str("load(w/s)   p50(s)   p95(s)   max(s)\n");
    let mut baseline_p50 = 0.0;
    for &load in &[1u64, 100, 400, 800] {
        let topo = Topology::symmetric(3, 2, scale_servers);
        let net = NetConfig {
            egress_bytes_per_sec: 125_000_000,
            ingress_bytes_per_sec: 125_000_000,
            ..NetConfig::datacenter()
        };
        let mut sim = Sim::new(topo, net, load);
        let cfg = DeployConfig {
            ensemble_size: 5,
            observers_per_cluster: 2,
            subscriptions: (0..20).map(|i| format!("cfg/{i}")).collect(),
        };
        let zeus = ZeusDeployment::install(&mut sim, &cfg);
        sim.run_for(SimDuration::from_secs(1));
        // Offer `load` writes/second for 10 seconds across 20 configs.
        for sec in 0..10u64 {
            for w in 0..load {
                let at = SimTime((1 + sec) * 1_000_000 + w * (1_000_000 / load.max(1)));
                zeus.write_at(
                    &mut sim,
                    at,
                    &format!("cfg/{}", w % 20),
                    Bytes::from(vec![b'x'; 25_000]),
                );
            }
        }
        sim.run_for(SimDuration::from_secs(30));
        let s = sim
            .metrics()
            .summary(zeus::metrics::PROPAGATION_S)
            .expect("samples recorded");
        if load == 1 {
            baseline_p50 = s.p50;
        }
        out.push_str(&format!(
            "{load:>9} {:>8.3} {:>8.3} {:>8.3}\n",
            s.p50, s.p95, s.max
        ));
    }
    out.push_str(&format!(
        "\ncomponent breakdown (ours vs paper):\n\
         git commit : measured in Fig 13 (ms at laptop scale; paper ~{:.0} s at 1M files)\n\
         tailer     : poll-interval/2 (paper ~{:.0} s)\n\
         tree       : measured {baseline_p50:.3} s at idle on {scale_servers}-per-cluster fleet (paper ~{:.1} s\n\
                      across hundreds of thousands of servers — scale-dependent constant)\n\
         shape: latency grows with load, reproducing the diurnal pattern.\n",
        paper::FIG14_COMMIT_S,
        paper::FIG14_TAILER_S,
        paper::FIG14_TREE_S,
    ));
    out
}

/// §3.4: push (Zeus tree) vs pull (ACMS-style) under the same fleet.
pub fn pushpull(servers_per_cluster: usize) -> String {
    let mut out = String::from(
        "§3.4 ablation: push model vs pull model\n\
         paper: polls that return nothing are pure overhead, and each poll\n\
         carries the client's full config list, which does not scale.\n\n",
    );
    let n_configs = 50usize;
    let writes = 10usize;
    let horizon = 600u64; // seconds

    // Pull model at several poll intervals.
    out.push_str("model        interval  staleness p50/max(s)   poll msgs   poll bytes\n");
    for &interval in &[10u64, 60, 300] {
        let mut sim = fleet_sim(interval, 1, 2, servers_per_cluster);
        let server = NodeId(0);
        sim.add_actor(server, Box::new(PullServerActor::new()));
        let paths: Vec<String> = (0..n_configs).map(|i| format!("cfg/{i}")).collect();
        let clients: Vec<NodeId> = sim.topology().nodes().skip(1).collect();
        for &c in &clients {
            sim.add_actor(
                c,
                Box::new(PullClientActor::new(
                    server,
                    SimDuration::from_secs(interval),
                    paths.clone(),
                )),
            );
        }
        for w in 0..writes {
            let at = SimTime((w as u64 * horizon / writes as u64) * 1_000_000);
            sim.post(
                at,
                server,
                server,
                Box::new(PullMsg::Set {
                    path: format!("cfg/{}", w % n_configs),
                    data: Bytes::from(vec![b'x'; 1024]),
                    origin: at,
                }),
            );
        }
        sim.run_until(SimTime(horizon * 1_000_000));
        let stale = sim
            .metrics()
            .summary(zeus::metrics::pull::STALENESS_S)
            .expect("staleness");
        let polls = sim.metrics().counter(zeus::metrics::pull::POLLS);
        let bytes = sim.metrics().counter(zeus::metrics::pull::POLL_BYTES);
        out.push_str(&format!(
            "pull      {interval:>6}s     {:>8.1} / {:<8.1} {polls:>9} {bytes:>12}\n",
            stale.p50, stale.max
        ));
    }

    // Push model: same fleet, same writes.
    let mut sim = fleet_sim(7, 1, 2, servers_per_cluster);
    let cfg = DeployConfig {
        ensemble_size: 3,
        observers_per_cluster: 2,
        subscriptions: (0..n_configs).map(|i| format!("cfg/{i}")).collect(),
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    sim.run_for(SimDuration::from_secs(1));
    for w in 0..writes {
        let at = SimTime((1 + w as u64 * horizon / writes as u64) * 1_000_000);
        zeus.write_at(
            &mut sim,
            at,
            &format!("cfg/{}", w % n_configs),
            Bytes::from(vec![b'x'; 1024]),
        );
    }
    sim.run_until(SimTime(horizon * 1_000_000));
    let prop = sim
        .metrics()
        .summary(zeus::metrics::PROPAGATION_S)
        .expect("propagation");
    out.push_str(&format!(
        "push (zeus)    —        {:>8.3} / {:<8.3}         0            0\n\
         \npush wins on both axes: sub-second staleness with zero polling\n\
         overhead; pull staleness is bounded below by interval/2 and its\n\
         traffic scales with clients × configs × 1/interval.\n",
        prop.p50, prop.max
    ));
    out
}

/// §3.5: PackageVessel policy sweep. Reports completion time of a large
/// config on every server plus storage offload, for the three policies.
pub fn packagevessel(servers_per_cluster: usize, size_mb: u64) -> String {
    let mut out = format!(
        "§3.5: PackageVessel — {size_mb} MB config to a fleet\n\
         paper: hundreds of MBs reach thousands of live servers in < 4 min,\n\
         via locality-aware P2P that offloads the storage system.\n\n\
         policy           completion p50/max (s)   storage pieces   p2p pieces   same-cluster%\n"
    );
    for policy in [
        PeerPolicy::LocalityAware,
        PeerPolicy::Random,
        PeerPolicy::StorageOnly,
    ] {
        let topo = Topology::symmetric(2, 3, servers_per_cluster);
        // Bulk distribution is bandwidth-bound: model 2 Gb/s effective
        // per-server throughput.
        let net = NetConfig {
            egress_bytes_per_sec: 250_000_000,
            ingress_bytes_per_sec: 250_000_000,
            ..NetConfig::datacenter()
        };
        let mut sim = Sim::new(topo, net, 35);
        let pv = PvDeployment::install(&mut sim, policy, 4);
        let meta = pv.publish(
            &mut sim,
            "feed/model",
            1,
            size_mb << 20,
            4 << 20,
            SimTime::ZERO,
        );
        sim.run_for(SimDuration::from_secs(1200));
        let done = pv.completion(&sim, &meta.id);
        let s = sim
            .metrics()
            .summary(packagevessel::metrics::FETCH_COMPLETE_S)
            .expect("fetches");
        let storage = sim
            .metrics()
            .counter(packagevessel::metrics::STORAGE_PIECES_SENT);
        let p2p = sim
            .metrics()
            .counter(packagevessel::metrics::P2P_PIECES_SENT);
        let same = sim
            .metrics()
            .counter(packagevessel::metrics::P2P_PIECES_SAME_CLUSTER);
        let pct_same = if p2p > 0 {
            100.0 * same as f64 / p2p as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{policy:?}{:pad$} {:>8.1} / {:<8.1}     {storage:>10} {p2p:>12}   {pct_same:>10.1}%{}\n",
            "",
            s.p50,
            s.max,
            if done < 1.0 { "  (INCOMPLETE)" } else { "" },
            pad = 16usize.saturating_sub(format!("{policy:?}").len()),
        ));
    }
    out.push_str(&format!(
        "\npaper bound: < {:.0} s for hundreds of MB — the locality-aware\n\
         swarm meets it; storage-only is the overload case PackageVessel\n\
         exists to avoid.\n",
        paper::PV_DELIVERY_BOUND_S
    ));
    out
}

/// §3.5 companion: why large configs cannot ride the Zeus tree — inner
/// node (observer) egress load comparison.
pub fn tree_vs_pv(servers_per_cluster: usize) -> String {
    // Send a 64 MB config through the Zeus tree and through PackageVessel;
    // compare observer egress bytes vs swarm spread.
    let size: u64 = 64 << 20;
    let topo = Topology::symmetric(1, 2, servers_per_cluster);
    let net = NetConfig {
        egress_bytes_per_sec: 250_000_000,
        ingress_bytes_per_sec: 250_000_000,
        ..NetConfig::datacenter()
    };
    let mut sim = Sim::new(topo.clone(), net.clone(), 36);
    let cfg = DeployConfig {
        ensemble_size: 3,
        observers_per_cluster: 1,
        subscriptions: vec!["big".into()],
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    sim.run_for(SimDuration::from_secs(1));
    let t0 = sim.now();
    zeus.write_at(&mut sim, t0, "big", Bytes::from(vec![0u8; size as usize]));
    sim.run_for(SimDuration::from_secs(600));
    let tree_done = sim
        .metrics()
        .summary(zeus::metrics::PROPAGATION_S)
        .map(|s| s.max)
        .unwrap_or(f64::NAN);
    let tree_bytes = sim.metrics().counter(simnet::stats::names::BYTES_SENT);

    let mut sim2 = Sim::new(topo, net, 37);
    let pv = PvDeployment::install(&mut sim2, PeerPolicy::LocalityAware, 4);
    let meta = pv.publish(&mut sim2, "big", 1, size, 4 << 20, SimTime::ZERO);
    sim2.run_for(SimDuration::from_secs(600));
    let pv_done = sim2
        .metrics()
        .summary(packagevessel::metrics::FETCH_COMPLETE_S)
        .map(|s| s.max)
        .unwrap_or(f64::NAN);
    let done_frac = pv.completion(&sim2, &meta.id);
    format!(
        "§3.5 companion: 64 MB config through the Zeus tree vs PackageVessel\n\
         zeus tree : last server at {tree_done:.1} s; each observer re-sends the\n\
                     full payload to every proxy in its cluster (total {} GB moved\n\
                     through 2 observers — the high-fanout inner nodes saturate)\n\
         pv swarm  : last server at {pv_done:.1} s (completion {:.0}%); load spread\n\
                     across all peers, storage sends each piece a handful of times\n",
        tree_bytes / (1 << 30),
        done_frac * 100.0
    )
}
