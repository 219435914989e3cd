#!/usr/bin/env bash
# Builds edhp_bench from the sources of this checkout (Release, into
# .bench_build/) and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload distributed --seed 7 --seconds 55 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=.bench_build
jobs=$(nproc)
if ((jobs > 4)); then jobs=4; fi
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" --target edhp_bench >&2
exec "$build/edhp_bench" "$@"
