#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, the full test suite, and every
# golden/gate. Run from anywhere; exits nonzero on the first failure.
#
# The goldens and the experiments' gates are `repro check` (the table is
# `bench::check::CHECKS`). `scripts/check.sh --bless` is `repro check
# --bless`, which rewrites the goldens instead of diffing them and skips
# what depends on the host; fmt, clippy and the tests do not run. Use it
# after an intentional change to a report or the metrics surface, and
# review the `git diff` before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = --bless ]; then
    exec cargo run -q --release -p bench --bin repro -- check --bless
elif [ -n "${1:-}" ]; then
    echo "usage: scripts/check.sh [--bless]"
    exit 2
fi

# step <name> <command…>: runs one step and records its wall time. On exit
# — pass or fail — the times print as a table; a failing run names the step
# it stopped in.
times=""
current=""
step() {
    current=$1
    shift
    echo "== $current"
    local t0
    t0=$(date +%s%3N)
    "$@"
    times+=$(printf '  %9.3f s  %s' "$(($(date +%s%3N) - t0))e-3" "$current")$'\n'
    current=""
}
trap 'printf "\nstep wall time\n%s" "$times"; [ -z "$current" ] || echo "  stopped in: $current"' EXIT

step "cargo fmt --check" cargo fmt --all -- --check

# compat/* carry #![allow(clippy::all)]: they are vendored stand-ins for
# external crates, not first-party code.
step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings

step "cargo test" cargo test --workspace -q

# `cargo test` ran only the debug profile. The release profile is the one
# that ships, and the two differ exactly where a config language gets hurt —
# unchecked integer arithmetic panics in one and wraps in the other, native
# frames are several times larger in one — so the crates that interpret what
# authors type run their tests (the hostile-input table, the nesting bounds,
# the interpreter-vs-verifier property among them) under it too.
step "release-profile semantics (cdsl, configerator, sitevars)" \
    cargo test --release -q -p cdsl -p configerator -p sitevars

# The benchmark (BENCHMARK.json) is a package of its own, outside the
# workspace, so nothing above compiles it: a crate API change that breaks
# it would pass every other gate. Its tests run each workload at --smoke
# size with every output check on.
step "benchmark smoke (five workloads)" \
    cargo test --release -q --offline --manifest-path benchmark/Cargo.toml

# Every golden diffed, every experiment gate evaluated, and the live fleet
# run (which rewrites BENCH_simnet.json); prints its own wall-time table.
step "repro check (goldens + gates)" cargo run -q --release -p bench --bin repro -- check
echo "all checks passed"
