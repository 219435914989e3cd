#!/usr/bin/env python3
"""Bench regression gate: run each gated bench and check its record.

    python3 scripts/bench_gate.py BENCH_DIR     # e.g. build/bench

Every row of GATES below is one (metric, op, bound) check on a bench's
record, the last line of its stdout that parses as a JSON object. A bound
is a constant or a factor times a field of a committed baseline, the first
line of BENCH_<name>.json at the repo root. A bench run more than once is
judged per row on its best run: the highest value for a floor (>=), the
lowest for a cap (<=). Every run of a gated bench must also exit 0, since
several benches find their own failures (an imbalance in the audit sweep, a
missed contract at a clock intensity that the record does not carry) and
report them only in their exit status.

Prints one line per row (bench, metric, value, op, bound, PASS/FAIL) and
exits 1 if any row fails, 2 on a usage error. Run from anywhere; baselines
resolve relative to the repo root.
"""

import json
import operator
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

# A bound of `factor` times `field` of the committed BENCH_<name>.json.
Baseline = namedtuple("Baseline", "factor name field")
# One checked row; `basis` is the Baseline a bound was computed from, if any.
Row = namedtuple("Row", "bench metric value op bound basis passed")


def throughput_floor(name):
    """90% of BENCH_<name>.json's events_per_sec: a drop of over 10% fails."""
    return Baseline(0.9, name, "events_per_sec")


# (bench, argv, runs, [(metric, op, bound), ...])
GATES = [
    # The engine kernel with std::function hops (1024 self-rescheduling
    # chains on a bare simulation), held to the micro_sim headline baseline.
    ("bench_ablation_overload", [], 1, [
        ("events_per_sec", ">=", throughput_floor("micro_sim")),
    ]),
    # Measurement integrity under Byzantine lies, at nominal intensity.
    ("bench_ablation_byzantine", ["--quiet"], 1, [
        ("leaked_records", "==", 0),
        # The defense's exclusions cost at most 1% of the true-peer evidence.
        ("true_retained_pct", ">=", 99.0),
        ("events_per_sec", ">=", throughput_floor("byzantine")),
    ]),
    # Merge-order fidelity under clock skew; the clock-off twin run is the
    # ground truth.
    ("bench_ablation_clock", ["--quiet"], 1, [
        ("pair_accuracy_pct", ">=", 99.9),
        # Every reordering is accounted in the TimeIntegrityStats ledger.
        ("unaccounted_reorders", "==", 0),
        ("same_hp_order_preserved", "==", 1),
        ("events_per_sec", ">=", throughput_floor("clock")),
    ]),
    # Conservation-ledger cost and coverage: the audit on/off twin-run
    # overhead, no record unaccounted across the composed-chaos sweep, and
    # no fewer sweep cases than the committed baseline.
    ("bench_ablation_audit", ["--quiet"], 1, [
        # Both twins run the same simulation (CampaignConfig::audit only
        # arms the final audit::enforce), so this row bounds the overhead
        # estimator's run-to-run spread rather than a cost of auditing.
        ("overhead_pct", "<=", 5.0),
        ("unaccounted_total", "==", 0),
        ("sweep_cases", ">=", Baseline(1.0, "audit", "sweep_cases")),
    ]),
    # The self-timed headlines jitter ~10% run to run: best of three.
    ("bench_micro_sim", ["--benchmark_filter=headline_only"], 3, [
        ("events_per_sec", ">=", throughput_floor("micro_sim")),
    ]),
    ("bench_micro_server", ["--benchmark_filter=headline_only"], 3, [
        ("events_per_sec", ">=", throughput_floor("micro_server")),
    ]),
    # The lazy population's memory stays flat: the 1M-pool run within 10%
    # of the committed figure, and within 1.25x of the 100k-pool run in the
    # same process (the constant-memory contract of the peer slab).
    ("bench_ablation_population", [], 1, [
        ("rss_1m_bytes", "<=", Baseline(1.1, "population", "rss_1m_bytes")),
        ("rss_ratio", "<=", 1.25),
    ]),
]


def record_of(stdout):
    """The last line of `stdout` that parses as a JSON object, or None."""
    for line in reversed(stdout.splitlines()):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            return record
    return None


def load_baselines():
    """The first line of every committed BENCH_<name>.json, by name."""
    baselines = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        with open(path) as f:
            baselines[path.stem[len("BENCH_"):]] = json.loads(f.readline())
    return baselines


def best(values, op, bound):
    """The run a row is judged on: the highest value for a floor, the lowest
    for a cap, and for an exact row the first run that matches."""
    if op == ">=":
        return max(values)
    if op == "<=":
        return min(values)
    return next((v for v in values if v == bound), values[0])


def check(outputs, baselines):
    """Check every gate against `outputs`, which maps each bench to its runs'
    (exit status, stdout). Returns one Row per check: an exit row per bench
    (its first non-zero status, else 0), then the bench's table rows. A
    value is None when some run printed no record or its record lacks the
    metric."""
    rows = []
    for bench, _, _, checks in GATES:
        runs = outputs[bench]
        status = next((code for code, _ in runs if code != 0), 0)
        rows.append(Row(bench, "exit", status, "==", 0, None, status == 0))
        records = [record_of(stdout) for _, stdout in runs]
        for metric, op, bound in checks:
            basis = bound if isinstance(bound, Baseline) else None
            if basis:
                bound = basis.factor * baselines[basis.name][basis.field]
            values = [r.get(metric) if r else None for r in records]
            value = None if None in values else best(values, op, bound)
            passed = value is not None and OPS[op](value, bound)
            rows.append(Row(bench, metric, value, op, bound, basis, passed))
    return rows


def number(x):
    if x is None:
        return "missing"
    if isinstance(x, float):
        return f"{x:.4f}".rstrip("0").rstrip(".")
    return str(x)


def main(argv):
    if len(argv) != 2:
        print("usage: bench_gate.py BENCH_DIR", file=sys.stderr)
        return 2
    bench_dir = Path(argv[1])
    outputs = {}
    for bench, args, runs, _ in GATES:
        outputs[bench] = []
        for _ in range(runs):
            print("==", bench, *args, flush=True)
            proc = subprocess.run([str(bench_dir / bench), *args],
                                  stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            outputs[bench].append((proc.returncode, proc.stdout))
    rows = check(outputs, load_baselines())
    print("\n== bench gate ==")
    for row in rows:
        b = row.basis
        basis = f" ({b.factor} x BENCH_{b.name}.{b.field})" if b else ""
        print(f"{row.bench:27} {row.metric:24} {number(row.value):>12} "
              f"{row.op} {number(row.bound)}{basis}  "
              f"{'PASS' if row.passed else 'FAIL'}")
    failed = sum(not row.passed for row in rows)
    print(f"{len(rows) - failed} of {len(rows)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
