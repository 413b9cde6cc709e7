#!/usr/bin/env bash
# benchmark/stability.sh — do two sets of runs of the same code agree?
#
# Runs every workload of BENCHMARK.json three times: sets A and B back to back
# at one seed, set C at another. Then prints, per (metric, workload), the
# relative difference next to the metric's bound (A vs B, then A vs C) and
# exits non-zero if any end-to-end metric disagrees by more than its bound,
# any stats digest differs, or any operation failed.
#
# Usage: benchmark/stability.sh [seed] [other-seed] [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed="${1:-1}"
other="${2:-2}"
seconds="${3:-8}"
out="$root/.bench_build/stability"
rm -rf "$out"

workloads=(fig13-cold one-sim-workers fig13-sampled serve-hit cluster-cold jobs-journal-cold)
run_set() { # name seed
    mkdir -p "$out/$1"
    for w in "${workloads[@]}"; do
        echo "stability: set $1, $w, seed $2" >&2
        bash "$here/run.sh" --workload "$w" --seed "$2" --seconds "$seconds" --trace 0 \
            -out "$out/$1/$w.json" >/dev/null 2>"$out/$1/$w.log" || { cat "$out/$1/$w.log" >&2; exit 1; }
    done
}
run_set A "$seed"
run_set B "$seed"
run_set C "$other"

status=0
echo "== A vs B (same seed $seed) =="
bash "$here/run.sh" -compare "$out/A" "$out/B" || status=$?
echo "== A vs C (seed $seed vs $other) =="
bash "$here/run.sh" -compare "$out/A" "$out/C" || status=$?
exit "$status"
