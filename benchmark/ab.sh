#!/usr/bin/env bash
# Same-machine A/B comparison of two commits on the repository benchmark.
#
#   benchmark/ab.sh <base> <head> [edhp_bench arguments...]
#
# Exports each commit with `git archive` into its own temporary tree and
# builds edhp_bench in both. Then, per workload, runs PAIRS pairs (default
# 10), alternating which side goes first, and prints per end-to-end metric
# each side's median and quartiles, the head's win share and a verdict
# (benchmark/ab_report.py). Extra arguments go to every run. Without --seed
# each workload runs its default seed, so both sides are also checked
# against the pinned outputs.
#
# Environment: PAIRS (default 10), WORKLOADS (default: the workloads of
# BENCHMARK.json, distributed and chaos; greedy and paper_scale also run).
set -euo pipefail
if (($# < 2)); then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
base=$1
head=$2
shift 2
args=("$@")
pairs=${PAIRS:-10}
workloads=${WORKLOADS:-distributed chaos}
repo=$(git rev-parse --show-toplevel)
jobs=$(nproc)
if ((jobs > 4)); then jobs=4; fi

work=$(mktemp -d "${TMPDIR:-/tmp}/edhp-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/out"

for side in base head; do
  rev=${!side}
  echo "building $side ($rev)" >&2
  mkdir -p "$work/$side"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
  {
    cmake -S "$work/$side/benchmark" -B "$work/$side/.bench_build" \
      -DCMAKE_BUILD_TYPE=Release
    cmake --build "$work/$side/.bench_build" -j "$jobs" --target edhp_bench
  } >"$work/$side.build.log" 2>&1 || {
    tail -20 "$work/$side.build.log" >&2
    exit 1
  }
done

run() {  # run <side> <workload> <pair>
  # A failed check still yields a result line; the report flags it.
  (cd "$work/$1" && .bench_build/edhp_bench --workload "$2" "${args[@]}") \
    >"$work/out/$2-$3-$1.txt" 2>/dev/null || true
}

for w in $workloads; do
  for ((i = 1; i <= pairs; i++)); do
    echo "$w pair $i/$pairs" >&2
    if ((i % 2 == 1)); then
      run base "$w" "$i"
      run head "$w" "$i"
    else
      run head "$w" "$i"
      run base "$w" "$i"
    fi
  done
done

python3 "$repo/benchmark/ab_report.py" "$work/out" "$repo/BENCHMARK.json"
