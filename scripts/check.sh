#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Run from anywhere; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every gate is opened with `gate "<name>"`, which also closes the timer of
# the one before it. On exit — pass or fail — the wall time of each gate
# that ran is printed as a table, in the order they ran; a failing run
# names the gate it stopped in.
gate_names=()
gate_ms=()
gate_open=""
gate_t0=0
gate() {
    local now
    now=$(date +%s%3N)
    if [ -n "$gate_open" ]; then
        gate_names+=("$gate_open")
        gate_ms+=("$((now - gate_t0))")
    fi
    gate_open=$1
    gate_t0=$now
    if [ -n "$1" ]; then
        echo "== $1"
    fi
}
gate_table() {
    local status=$? total=0 i
    local stopped=$gate_open
    gate ""
    echo
    echo "gate wall time"
    for i in "${!gate_names[@]}"; do
        printf '  %8d.%03d s  %s\n' "$((gate_ms[i] / 1000))" "$((gate_ms[i] % 1000))" "${gate_names[i]}"
        total=$((total + gate_ms[i]))
    done
    printf '  %8d.%03d s  total\n' "$((total / 1000))" "$((total % 1000))"
    if [ "$status" -ne 0 ] && [ -n "$stopped" ]; then
        echo "  stopped in: $stopped"
    fi
}
trap gate_table EXIT

gate "cargo fmt --check"
cargo fmt --all -- --check

gate "cargo clippy -D warnings"
# compat/* carry #![allow(clippy::all)]: they are vendored stand-ins for
# external crates, not first-party code.
cargo clippy --workspace --all-targets -- -D warnings

gate "cargo test"
cargo test --workspace -q

gate "metrics determinism gate (chaos seeds 1 2 3)"
# Chaos scenarios must be byte-for-byte reproducible: the exported metrics
# snapshot for a fixed seed is diffed against a checked-in golden. A diff
# means nondeterminism crept into the simulator (or the metrics surface
# changed — regenerate with scripts/update_goldens.sh and review the diff).
for seed in 1 2 3; do
    cargo run -q --release -p bench --bin repro -- metrics --chaos --seed "$seed" \
        | diff -u "scripts/goldens/chaos_metrics_seed${seed}.prom" - \
        || { echo "metrics snapshot for chaos seed ${seed} diverged from golden"; exit 1; }
done

gate "laser determinism gate (seed 1)"
# The laser sweep exercises the full serving tier (hedged reads, chaos
# section, Gatekeeper routing); its report must match the checked-in
# golden byte for byte. Regenerate intentional changes with
# scripts/update_goldens.sh and review the diff.
cargo run -q --release -p bench --bin repro -- laser \
    | diff -u "scripts/goldens/laser_seed1.txt" - \
    || { echo "laser report diverged from golden"; exit 1; }

gate "canary rollout gate (seed 1)"
# The rollout pipeline runs under chaos with injected-bad commits and
# seeded cache drift; the report carries its own acceptance gates
# (containment, convergence, drift repair) and must end "overall: PASS"
# byte-identically. Regenerate intentional changes with
# scripts/update_goldens.sh and review the diff — especially the gates.
cargo run -q --release -p bench --bin repro -- canary \
    | diff -u "scripts/goldens/canary_seed1.txt" - \
    || { echo "canary report diverged from golden"; exit 1; }

gate "drift audit gate (seed 1)"
# The auditor must detect exactly the seeded fault set (no misses, no
# false positives) and leave a clean fleet; the report gates on both.
cargo run -q --release -p bench --bin repro -- audit \
    | diff -u "scripts/goldens/audit_seed1.txt" - \
    || { echo "audit report diverged from golden"; exit 1; }

gate "compile pipeline gate (golden + speedups)"
# `repro compile` prints a deterministic report (candidate/compiled/skipped
# counts, cache hit rates, ripple/skip/byte-identity gates, counters-only
# Prometheus export) on stdout — diffed against a golden — and
# machine-dependent timings on stderr. The stderr line
# "compile speedup gates: PASS" asserts the warm-incremental (>= 5x) and,
# with >= 2 workers, parallel (>= 2x) speedups; its absence fails the gate.
# "verify overhead gate: PASS" asserts the static verify pass of the warm
# commit stays under 1% of the *legacy serial* recompile of the same ripple
# (it was "< 10% of the warm commit" until shared module evaluation made
# that commit ~3x faster: the gate guards the verifier, so its denominator
# must not move when the compiler is optimised).
cargo run -q --release -p bench --bin repro -- compile 2> /tmp/compile_timing.txt \
    | diff -u "scripts/goldens/compile.txt" - \
    || { echo "compile report diverged from golden"; exit 1; }
cat /tmp/compile_timing.txt
grep -q "compile speedup gates: PASS" /tmp/compile_timing.txt \
    || { echo "compile speedup gates failed"; exit 1; }
grep -q "verify overhead gate: PASS" /tmp/compile_timing.txt \
    || { echo "verify pass exceeded 1% of the legacy serial ripple recompile"; exit 1; }

gate "static verifier gate (golden + catch-rate floor)"
# `repro verify --check` replays fifty seeded-bad commits (five defect
# classes) through the plan() pre-commit verify gate and a canary-model
# runtime check for the leaks. Stdout (catch-rate table, sample rejection
# with repair hints, gates, counters) is byte-deterministic and diffed
# against a golden; the stderr line "verify catch-rate gate: PASS" asserts
# the >= 80% pre-commit catch-rate floor, zero escapes, and zero false
# positives — its absence fails the gate.
cargo run -q --release -p bench --bin repro -- verify --check 2> /tmp/verify_gates.txt \
    | diff -u "scripts/goldens/verify_check.txt" - \
    || { echo "verify report diverged from golden"; exit 1; }
cat /tmp/verify_gates.txt
grep -q "verify catch-rate gate: PASS" /tmp/verify_gates.txt \
    || { echo "verify catch-rate floor not met"; exit 1; }

gate "simnet perf benchmark gate (profiler + BENCH_simnet.json)"
# `repro perf` replays a workload-calibrated mixed scenario at three fleet
# sizes with the self-profiler on. The live run writes BENCH_simnet.json,
# self-validates it against the schema ("perf schema: OK" on stderr),
# enforces the 500k events/sec floor ("perf throughput gate: PASS"), and
# guards the large-fleet throughput against the PR 7 baseline ("perf
# baseline gate: PASS" — a regression guard, not the 2x engine-rework
# target, which is reported but Amdahl-capped by handler work). The
# --check run prints only virtual-time fields (event counts, bytes, queue
# depths — no wall time), so it is byte-deterministic: it is diffed
# against a golden AND against a second run of itself.
cargo run -q --release -p bench --bin repro -- perf > /tmp/perf_live.txt 2> /tmp/perf_gates.txt
cat /tmp/perf_gates.txt
grep -q "perf schema: OK" /tmp/perf_gates.txt \
    || { echo "BENCH_simnet.json failed schema validation"; exit 1; }
grep -q "perf throughput gate: PASS" /tmp/perf_gates.txt \
    || { echo "perf throughput floor not met"; exit 1; }
grep -q "perf baseline gate: PASS" /tmp/perf_gates.txt \
    || { echo "perf baseline regression guard not met"; exit 1; }
cargo run -q --release -p bench --bin repro -- perf --check 2> /dev/null > /tmp/perf_check_a.txt
cargo run -q --release -p bench --bin repro -- perf --check 2> /dev/null > /tmp/perf_check_b.txt
diff -u /tmp/perf_check_a.txt /tmp/perf_check_b.txt \
    || { echo "perf --check output is not byte-deterministic"; exit 1; }
diff -u "scripts/goldens/perf_check.txt" /tmp/perf_check_a.txt \
    || { echo "perf --check profile diverged from golden"; exit 1; }

gate "paper-scale fleet gate (golden + determinism + throughput floors)"
# `repro fleet` replays a diurnal commit day over the zeus tree at paper
# scale (1k / 5k / 20k / 50k / 100k nodes). The live run writes the
# "fleet_runs" section of BENCH_simnet.json (schema-gated on stderr as
# "fleet schema: OK") and enforces three wall-clock floors: 100k events/s
# at >= 5k nodes ("fleet throughput gate: PASS"), >= 1.4M events/s on the
# 20k tier (the watch-lease + shared-fan-out speedup over the 825,993
# events/s pre-lease baseline), and >= 100k events/s on the 100k-node
# tier (paper-scale viability). The --check run (1k + 5k + 100k fleets)
# prints only virtual-time fields — event counts, writes, raw-sample
# propagation percentiles with their sample counts — so it is
# byte-deterministic and diffed against a golden AND against a second run
# of itself.
cargo run -q --release -p bench --bin repro -- fleet > /tmp/fleet_live.txt 2> /tmp/fleet_gates.txt
cat /tmp/fleet_gates.txt
grep -q "fleet schema: OK" /tmp/fleet_gates.txt \
    || { echo "BENCH_simnet.json failed fleet schema validation"; exit 1; }
grep -q "fleet throughput gate: PASS" /tmp/fleet_gates.txt \
    || { echo "fleet throughput floor not met"; exit 1; }
grep -qF "fleet tier gate [20k]: PASS" /tmp/fleet_gates.txt \
    || { echo "20k-node tier below the 1.4M events/s lease-speedup floor"; exit 1; }
grep -qF "fleet tier gate [100k]: PASS" /tmp/fleet_gates.txt \
    || { echo "100k-node tier below the 100k events/s floor"; exit 1; }
cargo run -q --release -p bench --bin repro -- fleet --check 2> /dev/null > /tmp/fleet_check_a.txt
cargo run -q --release -p bench --bin repro -- fleet --check 2> /dev/null > /tmp/fleet_check_b.txt
diff -u /tmp/fleet_check_a.txt /tmp/fleet_check_b.txt \
    || { echo "fleet --check output is not byte-deterministic"; exit 1; }
diff -u "scripts/goldens/fleet_check.txt" /tmp/fleet_check_a.txt \
    || { echo "fleet --check report diverged from golden"; exit 1; }

gate "mobileconfig population gate (golden + determinism)"
# `repro fleet --mobile 1000000` models a million MobileConfig pull
# clients as per-cluster population cohorts over the 1k fleet. The report
# (per-cohort poll counts and staleness percentiles) is virtual-time only
# and must replay byte-identically; it is diffed against a golden AND
# against a second run of itself.
cargo run -q --release -p bench --bin repro -- fleet --mobile 1000000 2> /dev/null > /tmp/fleet_mobile_a.txt
cargo run -q --release -p bench --bin repro -- fleet --mobile 1000000 2> /dev/null > /tmp/fleet_mobile_b.txt
diff -u /tmp/fleet_mobile_a.txt /tmp/fleet_mobile_b.txt \
    || { echo "fleet --mobile output is not byte-deterministic"; exit 1; }
diff -u "scripts/goldens/fleet_mobile.txt" /tmp/fleet_mobile_a.txt \
    || { echo "fleet --mobile report diverged from golden"; exit 1; }

gate "fleet health plane gate (seeds 1 2)"
# `repro health` runs every tier's ODS emitters under two chaos seeds and
# reports per-tier rollups plus multi-window SLO burn rates. All numbers
# are virtual-time only; the report is golden-gated byte for byte.
cargo run -q --release -p bench --bin repro -- health \
    | diff -u "scripts/goldens/health_seed1.txt" - \
    || { echo "health report diverged from golden"; exit 1; }

gate "reconnect storm gate (seeds 1 2)"
# `repro storm` mass-restarts every observer and reads the reconnect herd
# off the ODS plane; decorrelated-jitter backoff must keep the shape tame
# (peak bounded by the proxy count, settling within the horizon).
cargo run -q --release -p bench --bin repro -- storm \
    | diff -u "scripts/goldens/storm_seed1.txt" - \
    || { echo "storm report diverged from golden"; exit 1; }

gate "losssweep byte-determinism gate (seed 1)"
# The loss sweep drives the retransmission/batching pipeline through four
# drop rates; its report must be byte-identical across runs of one seed —
# any divergence means the batched distribution path picked up a source of
# nondeterminism (iteration order, unkeyed randomness, time-dependent
# state).
cargo run -q --release -p bench --bin repro -- losssweep > /tmp/losssweep_a.txt
cargo run -q --release -p bench --bin repro -- losssweep > /tmp/losssweep_b.txt
diff -u /tmp/losssweep_a.txt /tmp/losssweep_b.txt \
    || { echo "losssweep output is not byte-deterministic"; exit 1; }

echo "all checks passed"
