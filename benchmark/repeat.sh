#!/usr/bin/env bash
# Runs the full set of workloads twice on the same build and prints, per
# workload and end-to-end metric, the two medians, how much worse the second
# is than the first, and each set's spread (distance between the quartiles
# as a share of the median), all against the metric's bound in
# BENCHMARK.json. This is the acceptance protocol of the benchmark itself:
# a metric whose spread or drift exceeds its bound needs longer rounds.
#
# usage: benchmark/repeat.sh [runs-per-set (10)] [first-seed (1)]
#
# Each run of a set uses another seed (first-seed, first-seed+1, ...), the
# same seeds in both sets. Raw values are kept in benchmark/out/repeat.json.
set -euo pipefail
cd "$(dirname "$0")/.."
RUNS="${1:-10}" FIRST_SEED="${2:-1}" exec python3 - <<'EOF'
import json, os, statistics, subprocess, sys, time

spec = json.load(open("BENCHMARK.json"))
runs, first = int(os.environ["RUNS"]), int(os.environ["FIRST_SEED"])
seconds = spec["run_seconds"]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}\n{out.stdout}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

began = time.time()
sets = []
for s in (1, 2):
    data = {}
    for w in spec["workloads"]:
        name = w["name"]
        t = time.time()
        data[name] = [run(name, first + i) for i in range(runs)]
        print(f"set {s} {name}: {runs} runs in {time.time() - t:.0f} s", file=sys.stderr)
    sets.append(data)
os.makedirs("benchmark/out", exist_ok=True)
json.dump(sets, open("benchmark/out/repeat.json", "w"))

misses = 0
print(f"{'workload':<20} {'metric':<24} {'median 1':>14} {'median 2':>14} "
      f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
for w in spec["workloads"]:
    name = w["name"]
    for m in spec["end_to_end"]:
        a = [r[m["name"]] for r in sets[0][name]]
        b = [r[m["name"]] for r in sets[1][name]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        misses += not ok
        print(f"{name:<20} {m['name']:<24} {ma:>14.6g} {mb:>14.6g} {worse:>+9.1%} "
              f"{sa:>9.1%} {sb:>9.1%} {m['bound']:>6.0%} {'' if ok else 'MISS'}")
print(f"{misses} (metric, workload) pairs outside their bound; "
      f"{2 * runs * len(spec['workloads'])} runs in {time.time() - began:.0f} s")
sys.exit(1 if misses else 0)
EOF
