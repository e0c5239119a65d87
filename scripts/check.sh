#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, the full test suite, and every
# golden/gate. Run from anywhere; exits nonzero on the first failure.
#
# `scripts/check.sh --bless` regenerates the goldens instead: every `golden`
# line writes its file rather than diffing it, and what is not a golden
# (fmt, clippy, tests, wall-clock gates, the live perf/fleet runs that
# rewrite BENCH_simnet.json) is skipped. Use it after an intentional change
# to a report or the metrics surface, and review the `git diff` — the
# reports' own PASS/FAIL lines above all — before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

bless=0
case "${1:-}" in
    "") ;;
    --bless) bless=1 ;;
    *) echo "usage: scripts/check.sh [--bless]"; exit 2 ;;
esac

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

repro() {
    cargo run -q --release -p bench --bin repro -- "$@"
}

# golden <file> <repro args…>: stdout of `repro <args>` must equal
# scripts/goldens/<file> byte for byte (under --bless it becomes the file).
# A diff means nondeterminism crept in, or the report changed. The output
# is kept in /tmp/golden_<file> for `again`.
golden() {
    local file=$1
    shift
    repro "$@" > "/tmp/golden_$file"
    if [ "$bless" = 1 ]; then
        cp "/tmp/golden_$file" "scripts/goldens/$file"
        echo "wrote scripts/goldens/$file"
    else
        diff -u "scripts/goldens/$file" "/tmp/golden_$file" \
            || { echo "repro $* diverged from scripts/goldens/$file (intended: --bless)"; exit 1; }
    fi
}

# again <file> <repro args…>: a second run of what `golden <file>` just ran
# must print the same bytes.
again() {
    local file=$1
    shift
    [ "$bless" = 1 ] && return
    repro "$@" 2> /dev/null | diff -u "/tmp/golden_$file" - \
        || { echo "repro $* is not byte-deterministic"; exit 1; }
}

# expect <stderr file> <line> <failure message>: a wall-clock or schema gate
# the run must have reported on stderr.
expect() {
    [ "$bless" = 1 ] && return
    grep -qF "$2" "$1" || { echo "$3"; exit 1; }
}

if [ "$bless" = 0 ]; then
    gate "cargo fmt --check"
    cargo fmt --all -- --check

    gate "cargo clippy -D warnings"
    # compat/* carry #![allow(clippy::all)]: they are vendored stand-ins for
    # external crates, not first-party code.
    cargo clippy --workspace --all-targets -- -D warnings

    gate "cargo test"
    cargo test --workspace -q
fi

gate "metrics determinism gate (chaos seeds 1 2 3)"
# Chaos scenarios must be byte-for-byte reproducible: the exported metrics
# snapshot for a fixed seed is a checked-in golden.
for seed in 1 2 3; do
    golden "chaos_metrics_seed${seed}.prom" metrics --chaos --seed "$seed"
done

gate "laser determinism gate (seed 1)"
# The laser sweep exercises the full serving tier (hedged reads, chaos
# section, Gatekeeper routing).
golden laser_seed1.txt laser

gate "canary rollout gate (seed 1)"
# The rollout pipeline runs under chaos with injected-bad commits and
# seeded cache drift; the report carries its own acceptance gates
# (containment, convergence, drift repair) and must end "overall: PASS"
# byte-identically.
golden canary_seed1.txt canary

gate "drift audit gate (seed 1)"
# The auditor must detect exactly the seeded fault set (no misses, no
# false positives) and leave a clean fleet; the report gates on both.
golden audit_seed1.txt audit

gate "compile pipeline gate (golden + speedups)"
# `repro compile` prints a deterministic report (candidate/compiled/skipped
# counts, cache hit rates, ripple/skip/byte-identity gates, counters-only
# Prometheus export) on stdout — the golden — and machine-dependent timings
# on stderr. The stderr line "compile speedup gates: PASS" asserts the
# warm-incremental (>= 5x) and, with >= 2 workers, parallel (>= 2x)
# speedups; its absence fails the gate. "verify overhead gate: PASS"
# asserts the static verify pass of the warm commit stays under 1% of the
# *legacy serial* recompile of the same ripple (it was "< 10% of the warm
# commit" until shared module evaluation made that commit ~3x faster: the
# gate guards the verifier, so its denominator must not move when the
# compiler is optimised).
golden compile.txt compile 2> /tmp/compile_timing.txt
cat /tmp/compile_timing.txt
expect /tmp/compile_timing.txt "compile speedup gates: PASS" "compile speedup gates failed"
expect /tmp/compile_timing.txt "verify overhead gate: PASS" \
    "verify pass exceeded 1% of the legacy serial ripple recompile"

gate "static verifier gate (golden + catch-rate floor)"
# `repro verify --check` replays fifty seeded-bad commits (five defect
# classes) through the plan() pre-commit verify gate and a canary-model
# runtime check for the leaks. Stdout (catch-rate table, sample rejection
# with repair hints, gates, counters) is byte-deterministic; the stderr
# line "verify catch-rate gate: PASS" asserts the >= 80% pre-commit
# catch-rate floor, zero escapes, and zero false positives — its absence
# fails the gate.
golden verify_check.txt verify --check 2> /tmp/verify_gates.txt
cat /tmp/verify_gates.txt
expect /tmp/verify_gates.txt "verify catch-rate gate: PASS" "verify catch-rate floor not met"

# The goldens above ran the release profile, the one that ships; `cargo
# test` ran only the debug one. The two differ exactly where a config
# language gets hurt — unchecked integer arithmetic panics in one and wraps
# in the other, native frames are several times larger in one — so the
# crates that interpret what authors type run their tests (the hostile-input
# table, the nesting bounds, the interpreter-vs-verifier property among
# them) under the shipping profile too. The release build exists by now;
# this builds only the test harnesses.
if [ "$bless" = 0 ]; then
    gate "release-profile semantics (cdsl, configerator, sitevars)"
    cargo test --release -q -p cdsl -p configerator -p sitevars
fi

gate "simnet perf benchmark gate (profiler + BENCH_simnet.json)"
# `repro perf` replays a workload-calibrated mixed scenario at three fleet
# sizes with the self-profiler on. The live run writes BENCH_simnet.json,
# self-validates it against the schema ("perf schema: OK" on stderr),
# enforces the 500k events/sec floor ("perf throughput gate: PASS"), and
# guards the large-fleet throughput against the PR 7 baseline ("perf
# baseline gate: PASS" — a regression guard, not the 2x engine-rework
# target, which is reported but Amdahl-capped by handler work). The
# --check run prints only virtual-time fields (event counts, bytes, queue
# depths — no wall time), so it is byte-deterministic: golden, and equal
# to a second run of itself.
if [ "$bless" = 0 ]; then
    repro perf > /tmp/perf_live.txt 2> /tmp/perf_gates.txt
    cat /tmp/perf_gates.txt
    expect /tmp/perf_gates.txt "perf schema: OK" "BENCH_simnet.json failed schema validation"
    expect /tmp/perf_gates.txt "perf throughput gate: PASS" "perf throughput floor not met"
    expect /tmp/perf_gates.txt "perf baseline gate: PASS" \
        "perf baseline regression guard not met"
fi
golden perf_check.txt perf --check 2> /dev/null
again perf_check.txt perf --check

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
# byte-deterministic: golden, and equal to a second run of itself.
if [ "$bless" = 0 ]; then
    repro fleet > /tmp/fleet_live.txt 2> /tmp/fleet_gates.txt
    cat /tmp/fleet_gates.txt
    expect /tmp/fleet_gates.txt "fleet schema: OK" \
        "BENCH_simnet.json failed fleet schema validation"
    expect /tmp/fleet_gates.txt "fleet throughput gate: PASS" "fleet throughput floor not met"
    expect /tmp/fleet_gates.txt "fleet tier gate [20k]: PASS" \
        "20k-node tier below the 1.4M events/s lease-speedup floor"
    expect /tmp/fleet_gates.txt "fleet tier gate [100k]: PASS" \
        "100k-node tier below the 100k events/s floor"
fi
golden fleet_check.txt fleet --check 2> /dev/null
again fleet_check.txt fleet --check

gate "mobileconfig population gate (golden + determinism)"
# `repro fleet --mobile 1000000` models a million MobileConfig pull
# clients as per-cluster population cohorts over the 1k fleet. The report
# (per-cohort poll counts and staleness percentiles) is virtual-time only
# and must replay byte-identically: golden, and equal to a second run of
# itself.
golden fleet_mobile.txt fleet --mobile 1000000 2> /dev/null
again fleet_mobile.txt fleet --mobile 1000000

gate "fleet health plane gate (seeds 1 2)"
# `repro health` runs every tier's ODS emitters under two chaos seeds and
# reports per-tier rollups plus multi-window SLO burn rates. All numbers
# are virtual-time only.
golden health_seed1.txt health

gate "reconnect storm gate (seeds 1 2)"
# `repro storm` mass-restarts every observer and reads the reconnect herd
# off the ODS plane; decorrelated-jitter backoff must keep the shape tame
# (peak bounded by the proxy count, settling within the horizon).
golden storm_seed1.txt storm

gate "losssweep gate (golden + determinism, seed 1)"
# The loss sweep drives the retransmission/batching pipeline through four
# drop rates. Its rows (bytes, frames, retransmits, latency, convergence)
# are pinned by the golden, and a second run of the same seed must be
# byte-identical — any divergence means the distribution path picked up a
# source of nondeterminism (iteration order, unkeyed randomness,
# time-dependent state).
golden losssweep_seed1.txt losssweep
again losssweep_seed1.txt losssweep

if [ "$bless" = 1 ]; then
    echo "goldens regenerated; review \`git diff scripts/goldens\`"
else
    echo "all checks passed"
fi
