#!/usr/bin/env sh
# Tier-1 in one command: the config audit, Release build + tests + the
# benchmark smoke + one RSS-sampled chaos rep, then the ASan/UBSan preset.
#
#   scripts/tier1.sh                # both presets
#   scripts/tier1.sh --release      # audit, release + benchmark smoke only
#   scripts/tier1.sh --asan         # sanitizer only
#   scripts/tier1.sh --fuzz         # asan preset, codec-hardening tests only
#   scripts/tier1.sh --chaosfuzz N  # release build, N-point chaos-schedule
#                                   # fuzz batch (fixed seed, deterministic)
#                                   # + committed corpus replay
#
# The release leg first runs scripts/config_audit.sh, which fails when a
# config struct in src/ has a field nothing assigns (one value in use: a
# constant, not a knob). The release suite runs parallel, shuffled and twice
# over, so a test that shares state with another (a fixed scratch path, say)
# fails loudly. The benchmark smoke builds benchmark/ — a separate CMake
# project over the same sources whose rep.cpp is the config API's strictest
# caller — and checks its pinned outputs at smoke scale. One traced
# smoke-scale chaos rep then runs under scripts/rss_by_span.py, which prints
# its resident memory span by span and fails if the rep does.
#
# The deterministic codec fuzzer, the byte reader/writer, tag and message
# round-trip suites (every decoder's bounds checks are inline in the byte
# codec, and these suites exercise them directly), the abuse/admission
# tests (the ListenerDefense suite runs the one admission gate on both the
# server and the honeypot), the observed-file catalogue's tests (it pages
# the file ids and sizes of attacker-sized shared lists, and they check its
# index and its fleet union against a reference), the journal entry codec's
# tests (journal files reach edhp_inspect from disk), the chaos repro
# parser's tests (repro files reach edhp_inspect and edhp_chaosfuzz --replay
# from disk) and the log reader's crafted record counts (log files reach
# edhp_inspect from disk)
# are ordinary ctest entries, so both presets run them; under the asan
# preset they double as memory-safety proofs. --fuzz is the focused loop for
# codec work; --chaosfuzz is the conservation-ledger smoke (see
# tools/edhp_chaosfuzz.cpp): a fixed-seed batch means a failure here is
# reproducible verbatim, and any shrunk repro lands in tests/chaos_corpus/
# ready to commit.
#
# Requires cmake >= 3.21 (presets v3). Run from anywhere; paths resolve
# relative to the repo root.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

want_release=1
want_asan=1
fuzz_only=0
chaosfuzz_points=0
case "${1:-}" in
  --release) want_asan=0 ;;
  --asan) want_release=0 ;;
  --fuzz) want_release=0; fuzz_only=1 ;;
  --chaosfuzz)
    want_release=0
    want_asan=0
    chaosfuzz_points="${2:-40}"
    ;;
  "") ;;
  *) echo "usage: scripts/tier1.sh [--release|--asan|--fuzz|--chaosfuzz N]" >&2; exit 2 ;;
esac

if [ "$want_release" = 1 ]; then
  echo "== tier1: config audit =="
  scripts/config_audit.sh
  echo "== tier1: release preset =="
  cmake --preset default
  cmake --build --preset default -j
  ctest --preset default -j"$(nproc)" --schedule-random --repeat until-fail:2
  echo "== tier1: benchmark smoke =="
  cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench -j"$(nproc)"
  ctest --test-dir build-bench -L edhp_bench
  echo "== tier1: chaos RSS by span (smoke) =="
  python3 scripts/rss_by_span.py build-bench/edhp_bench chaos --smoke
fi

if [ "$want_asan" = 1 ]; then
  echo "== tier1: asan preset =="
  cmake --preset asan
  cmake --build --preset asan -j
  if [ "$fuzz_only" = 1 ]; then
    ctest --preset asan -j"$(nproc)" -R 'CodecFuzz|Abuse|Defense|Corruption|TokenBucket|Byzantine|ObservedCatalogue|JournalEntries|ReproParse|CraftedRecordCount|ByteWriter|ByteReader|Tags|AllMessages'
  else
    ctest --preset asan -j"$(nproc)"
  fi
fi

if [ "$chaosfuzz_points" != 0 ]; then
  echo "== tier1: chaos-schedule fuzz ($chaosfuzz_points points) =="
  cmake --preset default
  cmake --build --preset default -j --target edhp_chaosfuzz
  build/tools/edhp_chaosfuzz --selftest
  build/tools/edhp_chaosfuzz --points="$chaosfuzz_points" --seed=20260808 --quiet
  replays=""
  for cfg in tests/chaos_corpus/*.cfg; do
    replays="$replays --replay=$cfg"
  done
  # shellcheck disable=SC2086  # word-splitting the --replay list is the point
  build/tools/edhp_chaosfuzz $replays
fi

echo "== tier1: OK =="
