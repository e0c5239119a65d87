//! End-to-end protocol tests for the Zeus deployment: propagation,
//! ordering, leader failover, observer/proxy failure handling, and the
//! on-disk-cache availability property from §3.4 of the paper.

use simnet::prelude::*;
use zeus::deploy::{DeployConfig, ZeusDeployment};
use zeus::ensemble::EnsembleActor;
use zeus::observer::ObserverActor;
use zeus::proxy::ProxyActor;
use zeus::pull::{PullClientActor, PullMsg, PullServerActor};

fn deployment(seed: u64, subscriptions: Vec<String>) -> (Sim, ZeusDeployment) {
    // 3 regions × 2 clusters × 10 servers = 60 nodes.
    let topo = Topology::symmetric(3, 2, 10);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 2,
        subscriptions,
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    sim.run_for(SimDuration::from_secs(1));
    (sim, zeus)
}

#[test]
fn write_reaches_every_proxy() {
    let (mut sim, zeus) = deployment(1, vec!["cfg/a".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/a", &b"v1"[..]);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(zeus.coverage(&sim, "cfg/a", b"v1"), 1.0);
    // Propagation latency samples were recorded for every proxy.
    let s = sim.metrics().summary("zeus.propagation_s").unwrap();
    assert_eq!(s.count, zeus.proxies.len());
    assert!(s.max < 2.0, "p100 propagation took {}s", s.max);
}

#[test]
fn updates_arrive_in_order_and_last_wins() {
    let (mut sim, zeus) = deployment(2, vec!["cfg/seq".into()]);
    let t = sim.now();
    for i in 0..20u32 {
        zeus.write_at(&mut sim, t, "cfg/seq", format!("v{i}").into_bytes());
    }
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(zeus.coverage(&sim, "cfg/seq", b"v19"), 1.0);
}

#[test]
fn late_subscription_gets_current_value() {
    let (mut sim, zeus) = deployment(3, vec![]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/late", &b"current"[..]);
    sim.run_for(SimDuration::from_secs(1));
    // Nobody was subscribed; now everyone subscribes and must receive the
    // value already committed (observer answers from its replica).
    zeus.subscribe_all(&mut sim, "cfg/late");
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(zeus.coverage(&sim, "cfg/late", b"current"), 1.0);
}

#[test]
fn leader_crash_elects_new_leader_and_writes_continue() {
    let (mut sim, zeus) = deployment(4, vec!["cfg/f".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/f", &b"before"[..]);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(zeus.coverage(&sim, "cfg/f", b"before"), 1.0);

    // Kill the leader; a follower must take over.
    let old_leader = zeus.initial_leader();
    sim.crash(old_leader);
    sim.run_for(SimDuration::from_secs(5));
    let leaders: Vec<NodeId> = zeus
        .ensemble
        .iter()
        .copied()
        .filter(|&n| n != old_leader)
        .filter(|&n| {
            sim.actor::<EnsembleActor>(n)
                .map(|a| a.is_leader())
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(leaders.len(), 1, "exactly one live leader: {leaders:?}");
    let new_leader = leaders[0];
    assert!(sim.metrics().counter("zeus.leader_elections") >= 1);

    // Writes through the new leader propagate to the whole fleet.
    let msg = zeus::ZeusMsg::Propose {
        path: "cfg/f".to_string(),
        data: bytes::Bytes::from_static(b"after"),
        origin: sim.now(),
        trace: None,
    };
    let now = sim.now();
    sim.post(now, new_leader, new_leader, Box::new(msg));
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(zeus.coverage(&sim, "cfg/f", b"after"), 1.0);
}

#[test]
fn crashed_follower_catches_up_on_recovery() {
    let (mut sim, zeus) = deployment(5, vec![]);
    let victim = zeus.ensemble[3];
    sim.crash(victim);
    let t = sim.now();
    for i in 0..5u32 {
        zeus.write_at(
            &mut sim,
            t,
            &format!("cfg/k{i}"),
            format!("v{i}").into_bytes(),
        );
    }
    sim.run_for(SimDuration::from_secs(2));
    sim.recover(victim);
    sim.run_for(SimDuration::from_secs(3));
    let actor: &EnsembleActor = sim.actor(victim).unwrap();
    assert_eq!(actor.store().len(), 5, "recovered follower must catch up");
}

#[test]
fn crashed_observer_catches_up_and_proxies_fail_over() {
    let (mut sim, zeus) = deployment(6, vec!["cfg/x".into()]);
    // Crash one observer, write, let proxies fail over to the sibling
    // observer in the same cluster.
    let victim = zeus.observers[0];
    sim.crash(victim);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/x", &b"v1"[..]);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        zeus.coverage(&sim, "cfg/x", b"v1"),
        1.0,
        "proxies must reach the data through the surviving observer"
    );
    assert!(sim.metrics().counter("zeus.proxy_failovers") > 0);

    // The observer recovers and must resync the missed write.
    sim.recover(victim);
    sim.run_for(SimDuration::from_secs(2));
    let obs: &ObserverActor = sim.actor(victim).unwrap();
    assert_eq!(&obs.store().get("cfg/x").unwrap().data[..], b"v1");
}

#[test]
fn disk_cache_survives_proxy_crash() {
    let (mut sim, zeus) = deployment(7, vec!["cfg/d".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/d", &b"cached"[..]);
    sim.run_for(SimDuration::from_secs(2));
    let proxy_node = zeus.proxies[0];
    sim.crash(proxy_node);
    // Even with the proxy process down, the application reads the on-disk
    // cache directly (§3.4's availability fallback).
    let proxy: &ProxyActor = sim.actor(proxy_node).unwrap();
    assert_eq!(
        &proxy.disk_cache().get("cfg/d").unwrap().data[..],
        b"cached"
    );
}

#[test]
fn all_components_down_apps_still_read_cache() {
    let (mut sim, zeus) = deployment(8, vec!["cfg/all".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/all", &b"v"[..]);
    sim.run_for(SimDuration::from_secs(2));
    // Crash everything: ensemble, observers, proxies.
    for &n in zeus
        .ensemble
        .iter()
        .chain(zeus.observers.iter())
        .chain(zeus.proxies.iter())
    {
        sim.crash(n);
    }
    sim.run_for(SimDuration::from_secs(1));
    for &p in &zeus.proxies {
        let proxy: &ProxyActor = sim.actor(p).unwrap();
        assert!(proxy.disk_cache().get("cfg/all").is_some());
    }
}

#[test]
fn pull_baseline_polls_and_converges() {
    let topo = Topology::symmetric(1, 1, 21);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), 9);
    let server = NodeId(0);
    sim.add_actor(server, Box::new(PullServerActor::new()));
    let paths: Vec<String> = (0..10).map(|i| format!("cfg/p{i}")).collect();
    for n in 1..21u32 {
        sim.add_actor(
            NodeId(n),
            Box::new(PullClientActor::new(
                server,
                SimDuration::from_secs(2),
                paths.clone(),
            )),
        );
    }
    // Seed one config; most polls will be empty — the pure overhead the
    // paper calls out.
    let now = sim.now();
    sim.post(
        now,
        server,
        server,
        Box::new(PullMsg::Set {
            path: "cfg/p3".into(),
            data: bytes::Bytes::from_static(b"v"),
            origin: now,
        }),
    );
    sim.run_for(SimDuration::from_secs(30));
    for n in 1..21u32 {
        let c: &PullClientActor = sim.actor(NodeId(n)).unwrap();
        assert_eq!(&c.read("cfg/p3").unwrap().data[..], b"v");
    }
    let polls = sim.metrics().counter("pull.polls");
    let empty = sim.metrics().counter("pull.empty_polls");
    assert!(polls > 200, "20 clients × ~15 polls: got {polls}");
    assert!(
        empty as f64 / polls as f64 > 0.9,
        "most polls should be empty: {empty}/{polls}"
    );
    // Staleness is bounded by the poll interval plus network time.
    let s = sim.metrics().summary("pull.staleness_s").unwrap();
    assert!(
        s.max <= 2.5,
        "staleness bounded by poll interval: {}",
        s.max
    );
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let (mut sim, zeus) = deployment(seed, vec!["cfg/det".into()]);
        let t = sim.now();
        zeus.write_at(&mut sim, t, "cfg/det", &b"v"[..]);
        sim.run_for(SimDuration::from_secs(2));
        let s = sim.metrics().summary("zeus.propagation_s").unwrap();
        (s.mean, sim.events_processed())
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn minority_partition_stalls_then_catches_up() {
    // 3 regions; the ensemble has 5 members spread 2/2/1. Partitioning
    // region 2 (1 member + its observers/proxies) leaves a quorum of 4 on
    // the majority side: writes keep committing there, the minority's
    // proxies stop seeing updates, and everything converges after healing.
    let (mut sim, zeus) = deployment(20, vec!["cfg/p".into()]);
    let r2 = RegionId(2);
    sim.partition(RegionId(0), r2);
    sim.partition(RegionId(1), r2);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/p", &b"during"[..]);
    sim.run_for(SimDuration::from_secs(5));

    // Majority-side proxies have the write; minority-side do not.
    let topo = sim.topology().clone();
    let (minority, majority): (Vec<_>, Vec<_>) = zeus
        .proxies
        .iter()
        .copied()
        .partition(|&p| topo.placement(p).region == r2);
    let have = |sim: &Sim, nodes: &[NodeId]| {
        nodes
            .iter()
            .filter(|&&p| {
                sim.actor::<ProxyActor>(p)
                    .and_then(|a| a.read("cfg/p"))
                    .map(|w| &w.data[..] == b"during")
                    .unwrap_or(false)
            })
            .count()
    };
    assert_eq!(
        have(&sim, &majority),
        majority.len(),
        "majority side converged"
    );
    assert_eq!(have(&sim, &minority), 0, "partitioned region is stale");

    // Heal: the minority observers resync from the leader and push to
    // their proxies.
    sim.heal(RegionId(0), r2);
    sim.heal(RegionId(1), r2);
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(have(&sim, &minority), minority.len(), "minority caught up");
}

/// The up ensemble member claiming leadership with the highest epoch.
fn max_epoch_leader(sim: &Sim, ensemble: &[NodeId]) -> NodeId {
    ensemble
        .iter()
        .copied()
        .filter(|&n| sim.is_up(n))
        .filter(|&n| {
            sim.actor::<EnsembleActor>(n)
                .map(|a| a.is_leader())
                .unwrap_or(false)
        })
        .max_by_key(|&n| sim.actor::<EnsembleActor>(n).unwrap().epoch())
        .expect("a leader exists")
}

#[test]
fn acked_write_survives_leader_crash_mid_propose() {
    let (mut sim, zeus) = deployment(30, vec!["cfg/ack".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/ack", &b"acked"[..]);
    // Long enough for the quorum commit (the acknowledgment), short enough
    // that distribution to the fleet is still in flight.
    sim.run_for(SimDuration::from_millis(300));
    let old_leader = zeus.initial_leader();
    assert!(
        sim.actor::<EnsembleActor>(old_leader)
            .unwrap()
            .store()
            .get("cfg/ack")
            .is_some(),
        "write must be committed at the leader before the crash"
    );
    sim.crash(old_leader);
    sim.run_for(SimDuration::from_secs(5));

    // The new leader inherited the acknowledged write, and the whole fleet
    // converged to it despite the mid-distribution crash.
    let new_leader = max_epoch_leader(&sim, &zeus.ensemble);
    assert_ne!(new_leader, old_leader);
    let a: &EnsembleActor = sim.actor(new_leader).unwrap();
    assert_eq!(&a.store().get("cfg/ack").unwrap().data[..], b"acked");
    assert_eq!(zeus.coverage(&sim, "cfg/ack", b"acked"), 1.0);
}

#[test]
fn proxy_crash_recover_serves_stale_cache_under_partition() {
    let (mut sim, zeus) = deployment(31, vec!["cfg/stale".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/stale", &b"v1"[..]);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(zeus.coverage(&sim, "cfg/stale", b"v1"), 1.0);

    // Cut region 2 off and advance the config on the majority side.
    let r2 = RegionId(2);
    sim.partition(RegionId(0), r2);
    sim.partition(RegionId(1), r2);
    let topo = sim.topology().clone();
    let victim = zeus
        .proxies
        .iter()
        .copied()
        .find(|&p| topo.placement(p).region == r2)
        .unwrap();
    let t = sim.now();
    zeus.write_current(&mut sim, t, "cfg/stale", &b"v2"[..]);
    sim.run_for(SimDuration::from_secs(1));

    // Crash the partitioned proxy: its on-disk cache keeps serving the
    // stale-but-available value (§3.4's fallback).
    sim.crash(victim);
    sim.run_for(SimDuration::from_secs(1));
    let proxy: &ProxyActor = sim.actor(victim).unwrap();
    assert_eq!(
        &proxy.disk_cache().get("cfg/stale").unwrap().data[..],
        b"v1"
    );

    // Recovered but still partitioned: serves the stale value, not nothing.
    sim.recover(victim);
    sim.run_for(SimDuration::from_secs(2));
    let proxy: &ProxyActor = sim.actor(victim).unwrap();
    assert_eq!(&proxy.read("cfg/stale").unwrap().data[..], b"v1");

    // Healed: converges to the majority's head.
    sim.heal(RegionId(0), r2);
    sim.heal(RegionId(1), r2);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(zeus.coverage(&sim, "cfg/stale", b"v2"), 1.0);
}

#[test]
fn sole_observer_crash_exhausts_failover_then_reconnects() {
    // One observer per cluster: when it crashes, its proxies have no
    // failover target and must back off instead of spinning.
    let topo = Topology::symmetric(3, 2, 10);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), 32);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 1,
        subscriptions: vec!["cfg/sole".into()],
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    sim.run_for(SimDuration::from_secs(1));
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/sole", &b"v1"[..]);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(zeus.coverage(&sim, "cfg/sole", b"v1"), 1.0);

    let victim = zeus.observers[0];
    sim.crash(victim);
    sim.run_for(SimDuration::from_secs(10));
    assert!(
        sim.metrics().counter("zeus.proxy_failover_exhausted") > 0,
        "orphaned proxies must report exhausted failover"
    );
    // Cached reads keep working the whole time.
    assert_eq!(zeus.coverage(&sim, "cfg/sole", b"v1"), 1.0);

    // Once the observer returns, backed-off proxies reconnect (within the
    // 8s backoff cap) and new writes flow again.
    sim.recover(victim);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/sole", &b"v2"[..]);
    sim.run_for(SimDuration::from_secs(12));
    assert_eq!(zeus.coverage(&sim, "cfg/sole", b"v2"), 1.0);
}

#[test]
fn dropped_updates_heal_via_retransmit_and_gap_resync() {
    let (mut sim, zeus) = deployment(33, vec!["cfg/loss".into()]);
    // A lossy network drops 30% of messages: ensemble appends/acks and
    // observer pushes all take hits.
    sim.set_link_faults(LinkFaults {
        drop_prob: 0.3,
        delay_prob: 0.0,
        max_extra_delay: SimDuration::ZERO,
    });
    let t = sim.now();
    for i in 0..15u64 {
        zeus.write_current(
            &mut sim,
            SimTime(t.0 + i * 200_000),
            "cfg/loss",
            format!("v{i}").into_bytes(),
        );
    }
    sim.run_for(SimDuration::from_secs(5));
    sim.clear_link_faults();
    sim.run_for(SimDuration::from_secs(10));

    // The leader had to retransmit stalled appends, observers had to detect
    // push gaps and resync — and the final value still reached everyone.
    assert!(sim.metrics().counter("zeus.append_retransmits") > 0);
    assert!(sim.metrics().counter("zeus.observer_gap_resyncs") > 0);
    assert_eq!(zeus.coverage(&sim, "cfg/loss", b"v14"), 1.0);
}

#[test]
fn traces_survive_retransmission_without_orphans_or_double_counts() {
    use simnet::trace::RecordKind;
    use zeus::metrics::hops;

    let (mut sim, zeus) = deployment(35, vec!["cfg/traced".into()]);
    // 30% loss forces retransmits and duplicate deliveries on every tier.
    sim.set_link_faults(LinkFaults {
        drop_prob: 0.3,
        delay_prob: 0.0,
        max_extra_delay: SimDuration::ZERO,
    });
    let t = sim.now();
    let mut roots = Vec::new();
    for i in 0..10u64 {
        let at = SimTime(t.0 + i * 200_000);
        let root = sim
            .tracer_mut()
            .start("cfg/traced", "driver.write", None, at, vec![]);
        roots.push(root);
        zeus.write_current_traced(
            &mut sim,
            at,
            "cfg/traced",
            format!("v{i}").into_bytes(),
            Some(root),
        );
    }
    sim.run_for(SimDuration::from_secs(5));
    sim.clear_link_faults();
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(zeus.coverage(&sim, "cfg/traced", b"v9"), 1.0);
    assert!(sim.metrics().counter("zeus.append_retransmits") > 0);

    let tracer = sim.tracer();
    let mut retransmit_annots = 0usize;
    for root in &roots {
        // Every hop's parent context was recorded before the message
        // carrying it was sent: no orphans, even across drops and resyncs.
        assert!(
            tracer.orphans(root.trace).is_empty(),
            "orphan records in trace {:?}",
            root.trace
        );
        // Duplicate deliveries never double-count a hop: each (hop, node)
        // pair appears at most once per trace.
        let mut seen = std::collections::HashSet::new();
        for r in tracer.trace_records(root.trace) {
            if r.kind == RecordKind::Span {
                assert!(
                    seen.insert((r.name, r.node)),
                    "hop {} recorded twice on {:?} in trace {:?}",
                    r.name,
                    r.node,
                    root.trace
                );
            } else if r.name == hops::RETRANSMIT {
                retransmit_annots += 1;
            }
        }
    }
    // Retransmissions are annotated (every one counts), not re-recorded as
    // hops.
    assert!(
        retransmit_annots > 0,
        "lossy run produced no retransmit annotations"
    );

    // The final write's trace reaches client visibility on every proxy.
    let last = roots.last().unwrap();
    let proxy_applies = tracer
        .trace_records(last.trace)
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.name == hops::PROXY_APPLY)
        .count();
    assert_eq!(proxy_applies, zeus.proxies.len());
}

#[test]
fn rejoining_partitioned_member_cannot_wedge_the_leader() {
    // The sole region-2 member sits out a partition, inflating its promised
    // epoch with doomed candidacies. On rejoin its high-epoch ElectMe would
    // wedge a leader that silently ignored it (the classic disruptive-
    // server livelock); instead the leader steps down and the next election
    // outbids the disruptor.
    let (mut sim, zeus) = deployment(34, vec!["cfg/rejoin".into()]);
    let r2 = RegionId(2);
    sim.partition(RegionId(0), r2);
    sim.partition(RegionId(1), r2);
    let t = sim.now();
    for i in 0..10u64 {
        zeus.write_current(
            &mut sim,
            SimTime(t.0 + i * 400_000),
            "cfg/rejoin",
            format!("v{i}").into_bytes(),
        );
    }
    sim.run_for(SimDuration::from_secs(6));
    sim.heal(RegionId(0), r2);
    sim.heal(RegionId(1), r2);
    sim.run_for(SimDuration::from_secs(8));

    assert!(
        sim.metrics().counter("zeus.leader_stepdowns") >= 1,
        "the refused high-epoch candidacy must force a stepdown"
    );
    // The system settled on a working leader: a post-heal write commits
    // fleet-wide.
    let t = sim.now();
    zeus.write_current(&mut sim, t, "cfg/rejoin", &b"post-heal"[..]);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(zeus.coverage(&sim, "cfg/rejoin", b"post-heal"), 1.0);
}

#[test]
fn uncommitted_minority_proposals_truncated_on_rejoin() {
    let (mut sim, zeus) = deployment(35, vec!["cfg/trunc".into()]);
    let t = sim.now();
    zeus.write_at(&mut sim, t, "cfg/trunc", &b"base"[..]);
    sim.run_for(SimDuration::from_secs(2));

    // Cut the leader's region (2 of 5 members) away from the quorum side,
    // then feed the stranded leader proposals it can never commit.
    let r0 = RegionId(0);
    sim.partition(r0, RegionId(1));
    sim.partition(r0, RegionId(2));
    let old_leader = zeus.initial_leader();
    let t = sim.now();
    for i in 0..3u32 {
        let msg = zeus::ZeusMsg::Propose {
            path: "cfg/trunc".into(),
            data: bytes::Bytes::from(format!("minority{i}").into_bytes()),
            origin: t,
            trace: None,
        };
        sim.post(t, old_leader, old_leader, Box::new(msg));
    }
    // The majority elects a fresh leader and commits a competing value.
    sim.run_for(SimDuration::from_secs(3));
    let majority_leader = max_epoch_leader(&sim, &zeus.ensemble);
    assert_ne!(majority_leader, old_leader);
    let t = sim.now();
    let msg = zeus::ZeusMsg::Propose {
        path: "cfg/trunc".into(),
        data: bytes::Bytes::from_static(b"majority"),
        origin: t,
        trace: None,
    };
    sim.post(t, majority_leader, majority_leader, Box::new(msg));
    sim.run_for(SimDuration::from_secs(2));

    // On heal the deposed leader must drop its uncommitted suffix and adopt
    // the majority history — no divergence, no resurrected writes.
    sim.heal(r0, RegionId(1));
    sim.heal(r0, RegionId(2));
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.metrics().counter("zeus.truncated_uncommitted") > 0);
    let a: &EnsembleActor = sim.actor(old_leader).unwrap();
    assert_eq!(&a.store().get("cfg/trunc").unwrap().data[..], b"majority");
    assert_eq!(zeus.coverage(&sim, "cfg/trunc", b"majority"), 1.0);
}

#[test]
fn write_sizes_affect_bytes_accounting() {
    let (mut sim, zeus) = deployment(21, vec!["big".into()]);
    let before = sim.metrics().counter("simnet.bytes_sent");
    let t = sim.now();
    zeus.write_at(&mut sim, t, "big", vec![0u8; 100_000]);
    sim.run_for(SimDuration::from_secs(3));
    let moved = sim.metrics().counter("simnet.bytes_sent") - before;
    // Ensemble replication + observer pushes + proxy notifies each carry
    // the payload: at least (proxies + observers) × 100 KB must move.
    let floor = (zeus.proxies.len() + zeus.observers.len()) as u64 * 100_000;
    assert!(moved > floor, "moved {moved} < floor {floor}");
}

/// Audits every ensemble member and observer: each zxid at or below the
/// node's contiguity cursor must actually be held. Batch frames are
/// all-or-nothing, and the cursor only advances through what arrived — a
/// partially applied frame (or a cursor advanced past a dropped sibling)
/// would surface here as a hole below the cursor.
fn audit_no_holes_below_cursor(sim: &Sim, zeus: &ZeusDeployment) {
    use std::collections::HashSet;
    for &n in &zeus.ensemble {
        let Some(a) = sim.actor::<EnsembleActor>(n) else {
            continue;
        };
        let c = a.contiguous();
        let held: HashSet<zeus::Zxid> = a.logged_zxids().into_iter().collect();
        let mut z = zeus::Zxid {
            epoch: c.epoch,
            counter: 1,
        };
        while z <= c {
            assert!(
                held.contains(&z) || z <= a.committed(),
                "ensemble {n:?}: hole at {z} below contiguity cursor {c}"
            );
            z = z.next();
        }
    }
    for &n in &zeus.observers {
        let Some(o) = sim.actor::<ObserverActor>(n) else {
            continue;
        };
        let c = o.contiguous();
        let held: HashSet<zeus::Zxid> = o.store().log_entries().map(|(z, _)| *z).collect();
        let mut z = zeus::Zxid {
            epoch: c.epoch,
            counter: 1,
        };
        while z <= c {
            assert!(
                held.contains(&z),
                "observer {n:?}: hole at {z} below contiguity cursor {c}"
            );
            z = z.next();
        }
    }
}

#[test]
fn batch_frames_deliver_all_or_nothing_under_drops() {
    // Every write goes to a distinct path so even a snapshot-shaped sync
    // reply carries the full history, keeping the audit exact.
    let (mut sim, zeus) = deployment(40, vec!["cfg/ao31".into()]);
    sim.set_link_faults(LinkFaults {
        drop_prob: 0.3,
        delay_prob: 0.0,
        max_extra_delay: SimDuration::ZERO,
    });
    let t = sim.now();
    for b in 0..4u64 {
        // Bursts land at one instant, which is what makes the leader form
        // multi-write AppendBatch / ObserverUpdateBatch frames.
        let at = SimTime(t.0 + b * 500_000);
        for i in 0..8u64 {
            let idx = b * 8 + i;
            zeus.write_current(
                &mut sim,
                at,
                &format!("cfg/ao{idx}"),
                format!("v{idx}").into_bytes(),
            );
        }
    }
    // Sample the invariant repeatedly WHILE drops are active: a partially
    // applied batch would be visible mid-flight, not after healing.
    for _ in 0..10 {
        sim.run_for(SimDuration::from_millis(400));
        audit_no_holes_below_cursor(&sim, &zeus);
    }
    sim.clear_link_faults();
    sim.run_for(SimDuration::from_secs(10));
    audit_no_holes_below_cursor(&sim, &zeus);

    // The lossy window really exercised the repair paths, and the watched
    // path still converged everywhere.
    assert!(sim.metrics().counter("zeus.append_retransmits") > 0);
    assert!(sim.metrics().counter("zeus.observer_gap_resyncs") > 0);
    assert_eq!(zeus.coverage(&sim, "cfg/ao31", b"v31"), 1.0);
}

#[test]
fn delivered_batches_never_double_count_trace_hops() {
    use simnet::trace::RecordKind;

    let (mut sim, zeus) = deployment(
        41,
        vec![
            "cfg/bt0".into(),
            "cfg/bt1".into(),
            "cfg/bt2".into(),
            "cfg/bt3".into(),
        ],
    );
    sim.set_link_faults(LinkFaults {
        drop_prob: 0.3,
        delay_prob: 0.0,
        max_extra_delay: SimDuration::ZERO,
    });
    // Traced bursts: simultaneous writes travel inside shared batch frames
    // (append retransmissions, observer pushes, coalesced notifies), so
    // each trace's hops are recorded off batched deliveries.
    let t = sim.now();
    let mut roots = Vec::new();
    for b in 0..3u64 {
        let at = SimTime(t.0 + b * 500_000);
        for i in 0..8u64 {
            let path = format!("cfg/bt{}", i % 4);
            let root = sim
                .tracer_mut()
                .start("cfg/bt", "driver.write", None, at, vec![]);
            roots.push(root);
            zeus.write_current_traced(
                &mut sim,
                at,
                &path,
                format!("v{}", b * 8 + i).into_bytes(),
                Some(root),
            );
        }
    }
    sim.run_for(SimDuration::from_secs(5));
    sim.clear_link_faults();
    sim.run_for(SimDuration::from_secs(10));
    assert!(sim.metrics().counter("zeus.append_retransmits") > 0);

    // A write delivered once inside a batch and again solo (or in another
    // batch) must still record each pipeline hop at most once per node.
    let tracer = sim.tracer();
    for root in &roots {
        assert!(
            tracer.orphans(root.trace).is_empty(),
            "orphan records in trace {:?}",
            root.trace
        );
        let mut seen = std::collections::HashSet::new();
        for r in tracer.trace_records(root.trace) {
            if r.kind == RecordKind::Span {
                assert!(
                    seen.insert((r.name, r.node)),
                    "hop {} recorded twice on {:?} in trace {:?}",
                    r.name,
                    r.node,
                    root.trace
                );
            }
        }
    }
    // The last burst's final writes win their paths fleet-wide.
    for i in 0..4u64 {
        let idx = 2 * 8 + 4 + i; // last burst writes each path twice; the
                                 // second write (i % 4 == i) is idx 20..23.
        let path = format!("cfg/bt{}", idx % 4);
        assert_eq!(
            zeus.coverage(&sim, &path, format!("v{idx}").as_bytes()),
            1.0,
            "path {path} did not converge to v{idx}"
        );
    }
}

#[test]
fn acked_write_is_never_retransmitted_to_that_follower() {
    use simnet::trace::RecordKind;
    use zeus::metrics::hops;

    let (mut sim, zeus) = deployment(42, vec!["cfg/ackreg".into()]);
    let leader = zeus.initial_leader();
    let followers: Vec<NodeId> = zeus
        .ensemble
        .iter()
        .copied()
        .filter(|&n| n != leader)
        .collect();
    let live = followers[0];
    let crashed = &followers[1..];
    for &f in crashed {
        sim.crash(f);
    }

    // With three of four followers down the write cannot reach a quorum
    // (leader + one ack = 2 of 5), so it stays pending and the heartbeat
    // pacer must keep retransmitting it — but only to the silent followers.
    let t = sim.now();
    let root = sim
        .tracer_mut()
        .start("cfg/ackreg", "driver.write", None, t, vec![]);
    zeus.write_current_traced(&mut sim, t, "cfg/ackreg", &b"v1"[..], Some(root));
    sim.run_for(SimDuration::from_secs(4));
    assert_eq!(sim.metrics().counter("zeus.commits"), 0);

    // Give the live follower's cumulative ack a generous second to land,
    // then require that every later retransmission targets a crashed
    // follower: an acked write is never re-sent to the follower that acked.
    let cutoff = SimTime(t.0 + 1_000_000);
    let mut late_to_crashed = 0u32;
    let mut late_to_live = 0u32;
    for r in sim.tracer().trace_records(root.trace) {
        if r.kind != RecordKind::Annot || r.name != hops::RETRANSMIT || r.at < cutoff {
            continue;
        }
        let Some((_, to)) = r.attrs.iter().find(|(k, _)| *k == "to") else {
            continue;
        };
        if *to == live.0.to_string() {
            late_to_live += 1;
        } else {
            late_to_crashed += 1;
        }
    }
    assert!(
        late_to_crashed > 0,
        "pacer stopped retransmitting to silent followers"
    );
    assert_eq!(
        late_to_live, 0,
        "write was re-sent to the follower that already acked it"
    );

    // Recovery completes the story: the crashed followers ack, the write
    // commits and reaches every proxy.
    for &f in crashed {
        sim.recover(f);
    }
    sim.run_for(SimDuration::from_secs(8));
    assert!(sim.metrics().counter("zeus.commits") >= 1);
    assert_eq!(zeus.coverage(&sim, "cfg/ackreg", b"v1"), 1.0);
}

#[test]
fn retransmit_chunk_adapts_to_measured_loss() {
    // Clean network: after enough appends the loss estimate settles at
    // zero and the retransmission chunk grows past the fixed default.
    let (mut sim, zeus) = deployment(31, vec![]);
    let t = sim.now();
    for i in 0..30u32 {
        zeus.write_at(&mut sim, t, &format!("cfg/clean{i}"), &b"v"[..]);
    }
    sim.run_for(SimDuration::from_secs(3));
    let leader = max_epoch_leader(&sim, &zeus.ensemble);
    let a: &EnsembleActor = sim.actor(leader).unwrap();
    for &f in zeus.ensemble.iter().filter(|&&n| n != leader) {
        assert!(
            a.retransmit_chunk_for(f) > zeus::types::MAX_BATCH_WRITES,
            "clean link should amortize past the fixed chunk"
        );
    }

    // Lossy network: the same workload drives the estimate up and the
    // chunk below the fixed default, bounding the all-or-nothing blast
    // radius per frame.
    let (mut sim, zeus) = deployment(32, vec![]);
    sim.set_link_faults(LinkFaults {
        drop_prob: 0.4,
        ..LinkFaults::default()
    });
    let t = sim.now();
    for i in 0..30u32 {
        zeus.write_at(&mut sim, t, &format!("cfg/lossy{i}"), &b"v"[..]);
    }
    sim.run_for(SimDuration::from_secs(6));
    let leader = max_epoch_leader(&sim, &zeus.ensemble);
    let a: &EnsembleActor = sim.actor(leader).unwrap();
    let adapted = zeus
        .ensemble
        .iter()
        .filter(|&&n| n != leader)
        .filter(|&&f| a.retransmit_chunk_for(f) < zeus::types::MAX_BATCH_WRITES)
        .count();
    assert!(
        adapted > 0,
        "40% drop must shrink the retransmission chunk on some link"
    );
}

#[test]
fn lease_expiry_during_oneway_partition_triggers_full_resubscribe() {
    use zeus::metrics::{LEASE_EXPIRIES, LEASE_RENEWALS};

    let (mut sim, zeus) = deployment(50, vec!["cfg/lease".into()]);
    // Install one cross-region watcher: a region-1 node watching a
    // region-0 observer, so a region-level one-way cut can sever exactly
    // the proxy→observer direction (pings and renewals) while the
    // observer→proxy direction stays up — the silent-expiry scenario a
    // symmetric partition cannot produce.
    let topo = sim.topology().clone();
    let observer = zeus.observers[0];
    assert_eq!(topo.placement(observer).region, RegionId(0));
    let cross = zeus
        .proxies
        .iter()
        .copied()
        .find(|&p| topo.placement(p).region == RegionId(1))
        .unwrap();
    sim.add_actor(
        cross,
        Box::new(ProxyActor::new(vec![observer], vec!["cfg/lease".into()])),
    );
    sim.run_for(SimDuration::from_secs(2));

    let t = sim.now();
    zeus.write_current(&mut sim, t, "cfg/lease", &b"v1"[..]);
    sim.run_for(SimDuration::from_secs(4));
    assert_eq!(zeus.coverage(&sim, "cfg/lease", b"v1"), 1.0);
    assert!(
        sim.metrics().counter(LEASE_RENEWALS) > 0,
        "watchers must be on the lease protocol"
    );
    let expiries_before = sim.metrics().counter(LEASE_EXPIRIES);

    // Cut region 1 → region 0 only. The cross watcher's pings vanish; the
    // observer hears nothing, and after the lease TTL its anti-entropy
    // sweep must expire the lease and drop the watches.
    sim.partition_oneway(RegionId(1), RegionId(0));
    sim.run_for(SimDuration::from_secs(10));
    assert!(
        sim.metrics().counter(LEASE_EXPIRIES) > expiries_before,
        "observer must expire the silent watcher's lease"
    );

    // A write committed while the watch is gone: the cut proxy must miss
    // it (its watch no longer exists at the observer) …
    let t = sim.now();
    zeus.write_current(&mut sim, t, "cfg/lease", &b"v2"[..]);
    sim.run_for(SimDuration::from_secs(2));
    let p: &ProxyActor = sim.actor(cross).unwrap();
    assert_eq!(
        &p.read("cfg/lease").unwrap().data[..],
        b"v1",
        "expired watcher must be stale during the cut"
    );

    // … and the post-heal re-establishment (fresh lease + full
    // re-subscribe with held versions) must deliver it: no lost
    // notifications.
    sim.heal_oneway(RegionId(1), RegionId(0));
    sim.run_for(SimDuration::from_secs(15));
    assert_eq!(
        zeus.coverage(&sim, "cfg/lease", b"v2"),
        1.0,
        "full re-subscribe must repair the missed write"
    );
}

#[test]
fn observer_restart_fences_stale_leases_and_watchers_fall_back() {
    use zeus::metrics::{LEASE_FALLS_BACK, LEASE_RENEWALS};

    let (mut sim, zeus) = deployment(51, vec!["cfg/fence".into()]);
    let t = sim.now();
    zeus.write_current(&mut sim, t, "cfg/fence", &b"v1"[..]);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(zeus.coverage(&sim, "cfg/fence", b"v1"), 1.0);
    assert!(sim.metrics().counter(LEASE_RENEWALS) > 0);
    let falls_before = sim.metrics().counter(LEASE_FALLS_BACK);

    // Restart an observer in place (no simulated downtime, so no
    // healthcheck failover): recovery bumps its lease generation, fencing
    // every lease granted before the crash. The next ping from each
    // holder carries a now-unknown epoch and must be answered with a
    // failed-lease pong, driving the holder through the anti-entropy
    // fallback — a fresh lease and a full re-subscribe.
    let victim = zeus.observers[0];
    sim.crash(victim);
    sim.recover(victim);
    sim.run_for(SimDuration::from_secs(4));
    assert!(
        sim.metrics().counter(LEASE_FALLS_BACK) > falls_before,
        "stale-epoch watchers must fall back to a full re-subscribe"
    );

    // The fenced-and-reestablished watchers still get new writes.
    let t = sim.now();
    zeus.write_current(&mut sim, t, "cfg/fence", &b"v2"[..]);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(zeus.coverage(&sim, "cfg/fence", b"v2"), 1.0);
}
