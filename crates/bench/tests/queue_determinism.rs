//! Byte-determinism gates for the allocation-free event core.
//!
//! The calendar queue, slab, and interner are pure engine substitutions:
//! they must replay the exact `(at, seq)` dispatch order of the reference
//! binary heap, and the profiler must stay a pure observer. Both claims
//! are checked on real metric surfaces — the same ones `repro check`
//! golden-gates — not on synthetic queues.

use bytes::Bytes;
use simnet::prelude::*;
use simnet::sim::set_default_reference_queue;
use zeus::deploy::{DeployConfig, ZeusDeployment};

/// `repro metrics` (the golden-gated Prometheus dump) must be
/// byte-identical whether sims run on the calendar queue or the reference
/// `BinaryHeap`. This is the top-level proof that the queue swap changes
/// wall time only.
#[test]
fn repro_metrics_identical_across_queue_impls() {
    let calendar = bench::trace_exp::metrics(1, false);
    set_default_reference_queue(true);
    let reference = bench::trace_exp::metrics(1, false);
    set_default_reference_queue(false);
    assert_eq!(
        calendar, reference,
        "repro metrics must not depend on the event-queue implementation"
    );
    assert!(calendar.contains("zeus_"), "dump must carry zeus metrics");
}

/// One small zeus scenario, exported four ways: {calendar, reference} x
/// {profiler on, off}. All four Prometheus dumps must match — the
/// profiler only observes (its wall fields never feed back into the
/// schedule), and the queues dispatch identically.
#[test]
fn replay_identical_across_queue_and_profiler() {
    fn run(reference: bool, profiler: bool) -> String {
        if reference {
            set_default_reference_queue(true);
        }
        let topo = Topology::symmetric(2, 2, 6);
        let mut sim = Sim::new(topo, NetConfig::datacenter(), 11);
        set_default_reference_queue(false);
        if profiler {
            sim.enable_profiler();
        }
        let cfg = DeployConfig {
            subscriptions: (0..3).map(|i| format!("det/{i}")).collect(),
            ..DeployConfig::default()
        };
        let zeus = ZeusDeployment::install(&mut sim, &cfg);
        for k in 0..20u64 {
            let at = SimTime(1_000_000 + k * 250_000);
            zeus.write_current(
                &mut sim,
                at,
                &format!("det/{}", k % 3),
                Bytes::from(format!("v{k}")),
            );
        }
        sim.run_until(SimTime(10_000_000));
        sim.metrics().export_prometheus()
    }
    let base = run(false, false);
    assert!(base.contains("zeus_"), "scenario must produce zeus metrics");
    for (reference, profiler) in [(false, true), (true, false), (true, true)] {
        assert_eq!(
            base,
            run(reference, profiler),
            "replay diverged (reference_queue={reference}, profiler={profiler})"
        );
    }
}
