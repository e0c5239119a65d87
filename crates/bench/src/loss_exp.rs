//! `repro losssweep`: the distribution pipeline under sustained message
//! loss.
//!
//! The heartbeat pacer substitutes for ZAB's FIFO TCP channels on a lossy
//! network: whatever a drop swallowed is re-sent on the next 50 ms tick.
//! The pacer keeps a per-follower cumulative-ack cursor and sends each
//! follower exactly the writes it is missing, as `AppendBatch` frames;
//! commits ship to each observer as `ObserverUpdateBatch` frames,
//! observers coalesce proxy notifies, and proxies detect lost notifies
//! through their watch-lease counters.
//!
//! Each drop rate runs the same seeded workload — bursty writes, as a
//! config deployment wave produces, which is exactly where the in-order
//! commit point stalls and the uncommitted tail grows. The report gives
//! total bytes-on-wire, frames, retransmitted (follower, write) pairs, the
//! commit→proxy p50/p99, and how many sub-runs converged (every proxy
//! holding the final bytes at the horizon). The output is
//! byte-deterministic per seed (`repro check` diffs it against a
//! golden and against a second run).

use simnet::prelude::*;
use simnet::stats::names as simnames;
use zeus::deploy::{DeployConfig, ZeusDeployment};

/// Drop rates swept, in percent.
const DROPS_PCT: &[u32] = &[0, 10, 30, 50];
/// Distinct config paths the writes cycle over.
const PATHS: usize = 4;
/// Write bursts (deployment waves) pushed through the pipeline.
const BURSTS: usize = 6;
/// Writes per burst.
const BURST: usize = 30;
/// Payload bytes per write (a compiled-config-sized blob).
const PAYLOAD: usize = 2048;
const FIRST_BURST_US: u64 = 1_000_000;
const BURST_PERIOD_US: u64 = 2_000_000;
/// Settle time after the last burst (lets 50%-drop runs drain).
const SETTLE_US: u64 = 20_000_000;
/// Seeded sub-runs merged per drop rate: tail percentiles of a
/// single lossy run are dominated by a handful of repair events, so one
/// seed's p99 is noise. Merging histograms and counters across sub-runs
/// keeps the output deterministic while measuring something stable.
const SUBRUNS: u64 = 5;

/// One run's observables.
struct RunStats {
    bytes: u64,
    frames: u64,
    retransmit_pairs: u64,
    commits: u64,
    proxy_updates: u64,
    p50_s: Option<f64>,
    p99_s: Option<f64>,
    /// Sub-runs in which every proxy held the final bytes at the horizon.
    converged_runs: u64,
}

fn path(i: usize) -> String {
    format!("loss/{}", i % PATHS)
}

fn run_once(seed: u64, drop: f64) -> Metrics {
    let topo = Topology::symmetric(3, 2, 8);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), seed);
    let cfg = DeployConfig {
        ensemble_size: 5,
        observers_per_cluster: 1,
        // One watched path keeps the notify fan-out from drowning the
        // retransmission traffic under measurement.
        subscriptions: vec![path(0)],
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    if drop > 0.0 {
        sim.set_link_faults(LinkFaults {
            drop_prob: drop,
            ..LinkFaults::default()
        });
    }
    for b in 0..BURSTS {
        let at = SimTime(FIRST_BURST_US + b as u64 * BURST_PERIOD_US);
        for i in 0..BURST {
            let idx = b * BURST + i;
            zeus.write_current(&mut sim, at, &path(idx), vec![idx as u8; PAYLOAD]);
        }
    }
    let horizon = SimTime(FIRST_BURST_US + BURSTS as u64 * BURST_PERIOD_US + SETTLE_US);
    sim.run_until(horizon);
    // End-state convergence: does every proxy hold the final bytes of the
    // watched path at the horizon? Recorded as a counter so merged cells
    // can assert that repair closed every gap the drops opened.
    let last_idx = (0..BURSTS * BURST).rev().find(|i| i % PATHS == 0).unwrap();
    let expected = vec![last_idx as u8; PAYLOAD];
    if zeus.coverage(&sim, &path(0), &expected) == 1.0 {
        sim.metrics_mut().incr("loss.converged_runs", 1);
    }
    sim.metrics().clone()
}

/// Merges `SUBRUNS` seeded runs at one drop rate.
fn run_cell(seed: u64, drop: f64) -> RunStats {
    let mut merged = Metrics::new();
    for sub in 0..SUBRUNS {
        merged.merge(&run_once(seed + 1000 * sub, drop));
    }
    RunStats {
        bytes: merged.counter(simnames::BYTES_SENT),
        frames: merged.counter(simnames::MESSAGES_SENT),
        retransmit_pairs: merged.counter(zeus::metrics::APPEND_RETRANSMITS),
        commits: merged.counter(zeus::metrics::COMMITS),
        proxy_updates: merged.counter(zeus::metrics::PROXY_UPDATES),
        p50_s: merged
            .histogram(zeus::metrics::PROPAGATION_S)
            .map(|h| h.quantile_secs(0.50)),
        p99_s: merged
            .histogram(zeus::metrics::PROPAGATION_S)
            .map(|h| h.quantile_secs(0.99)),
        converged_runs: merged.counter("loss.converged_runs"),
    }
}

fn fmt_bytes(b: u64) -> String {
    format!("{:.2} MB", b as f64 / 1e6)
}

fn fmt_p99(p: Option<f64>) -> String {
    match p {
        Some(s) => format!("{s:.3}s"),
        None => "-".to_string(),
    }
}

/// Runs the sweep and renders the table, one row per drop rate.
pub fn losssweep(seed: u64) -> String {
    let mut out = format!(
        "loss sweep — seed {seed}: ack-aware batched retransmission under sustained message loss\n\
         fleet: 3 regions × 2 clusters × 8 servers; 5-node ensemble, 1 observer/cluster\n\
         workload: {BURSTS} bursts × {BURST} writes ({PAYLOAD} B payloads) over {PATHS} paths\n\n\
         {:>5} {:>14} {:>9} {:>12} {:>8} {:>10} {:>12} {:>12} {:>10}\n",
        "drop%",
        "bytes-on-wire",
        "frames",
        "retransmits",
        "commits",
        "proxy_upd",
        "commit→p50",
        "commit→p99",
        "converged",
    );
    for &pct in DROPS_PCT {
        let r = run_cell(seed, pct as f64 / 100.0);
        out.push_str(&format!(
            "{pct:>5} {:>14} {:>9} {:>12} {:>8} {:>10} {:>12} {:>12} {:>10}\n",
            fmt_bytes(r.bytes),
            r.frames,
            r.retransmit_pairs,
            r.commits,
            r.proxy_updates,
            fmt_p99(r.p50_s),
            fmt_p99(r.p99_s),
            format!("{}/{SUBRUNS}", r.converged_runs),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commit→proxy p50 ceiling at 30% drop: the bulk of writes land within
    /// a few 50 ms retransmission ticks (0.172 s measured at seed 7).
    const P50_BOUND_30_PCT_S: f64 = 0.25;
    /// Commit→proxy p99 ceiling at 30% drop: the tail is a handful of
    /// 500 ms healthcheck rounds of lease-counter detection and repair
    /// (2.884 s measured at seed 7).
    const P99_BOUND_30_PCT_S: f64 = 4.0;

    #[test]
    fn delivery_holds_up_to_30_pct_drop() {
        // 50% drop is reported by the sweep but not required to converge
        // inside the horizon.
        for pct in [0u32, 10, 30] {
            let r = run_cell(7, pct as f64 / 100.0);
            assert_eq!(
                r.converged_runs, SUBRUNS,
                "{pct}% drop: a sub-run left a proxy behind"
            );
            assert_eq!(
                r.commits,
                SUBRUNS * (BURSTS * BURST) as u64,
                "{pct}% drop: writes left uncommitted"
            );
            assert!(r.proxy_updates > 0);
            if pct == 30 {
                let (p50, p99) = (r.p50_s.unwrap(), r.p99_s.unwrap());
                assert!(
                    p50 <= P50_BOUND_30_PCT_S,
                    "commit→proxy p50 at 30% drop: {p50:.3}s"
                );
                assert!(
                    p99 <= P99_BOUND_30_PCT_S,
                    "commit→proxy p99 at 30% drop: {p99:.3}s"
                );
            }
        }
    }

    #[test]
    fn losssweep_is_deterministic_per_seed() {
        assert_eq!(losssweep(3), losssweep(3));
    }
}
