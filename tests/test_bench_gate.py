#!/usr/bin/env python3
"""Unit tests for scripts/bench_gate.py's checker, on canned bench output.

    python3 tests/test_bench_gate.py
"""

import importlib.util
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True  # keep scripts/ free of __pycache__
_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_gate.py"
_SPEC = importlib.util.spec_from_file_location("bench_gate", _SCRIPT)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

BASELINES = {
    "micro_sim": {"events_per_sec": 6000000},
    "micro_server": {"events_per_sec": 4000000},
    "byzantine": {"events_per_sec": 1300000},
    "clock": {"events_per_sec": 900000},
    "audit": {"sweep_cases": 6},
    "population": {"rss_1m_bytes": 32000000},
}

# One passing record per gated bench, with a field no row reads.
PASSING = {
    "bench_ablation_overload": {"events_per_sec": 6500000,
                                "spool_peak_bytes": 6842},
    "bench_ablation_byzantine": {"true_retained_pct": 100.067,
                                 "leaked_records": 0,
                                 "undefended_leaked": 22988,
                                 "events_per_sec": 1333234},
    "bench_ablation_clock": {"pair_accuracy_pct": 99.9998,
                             "cross_inversions": 11269,
                             "unaccounted_reorders": 0,
                             "same_hp_order_preserved": 1,
                             "events_per_sec": 908583},
    "bench_ablation_audit": {"overhead_pct": -3.64, "sweep_cases": 6,
                             "sweep_born": 665527, "unaccounted_total": 0},
    "bench_micro_sim": {"events_per_sec": 6121683,
                        "peak_rss_bytes": 3919872},
    "bench_micro_server": {"events_per_sec": 4240614,
                           "peak_rss_bytes": 3907584},
    "bench_ablation_population": {"rss_100k_bytes": 31961088,
                                  "rss_1m_bytes": 32419840,
                                  "rss_ratio": 1.014},
}

# The gate's 15 rows: (bench, metric, op, bound under BASELINES).
ROWS = [
    ("bench_ablation_overload", "events_per_sec", ">=", 0.9 * 6000000),
    ("bench_ablation_byzantine", "leaked_records", "==", 0),
    ("bench_ablation_byzantine", "true_retained_pct", ">=", 99.0),
    ("bench_ablation_byzantine", "events_per_sec", ">=", 0.9 * 1300000),
    ("bench_ablation_clock", "pair_accuracy_pct", ">=", 99.9),
    ("bench_ablation_clock", "unaccounted_reorders", "==", 0),
    ("bench_ablation_clock", "same_hp_order_preserved", "==", 1),
    ("bench_ablation_clock", "events_per_sec", ">=", 0.9 * 900000),
    ("bench_ablation_audit", "overhead_pct", "<=", 5.0),
    ("bench_ablation_audit", "unaccounted_total", "==", 0),
    ("bench_ablation_audit", "sweep_cases", ">=", 6),
    ("bench_micro_sim", "events_per_sec", ">=", 0.9 * 6000000),
    ("bench_micro_server", "events_per_sec", ">=", 0.9 * 4000000),
    ("bench_ablation_population", "rss_1m_bytes", "<=", 1.1 * 32000000),
    ("bench_ablation_population", "rss_ratio", "<=", 1.25),
]

RUNS = {bench: runs for bench, _, runs, _ in gate.GATES}


def stdout_of(record):
    return "ablation: human-readable rows\n  ...\n" + json.dumps(record) + "\n"


def outputs_of(records, status=None):
    """Every gated bench's runs, each printing its record from `records`."""
    status = status or {}
    return {bench: [(status.get(bench, 0), stdout_of(records[bench]))]
            * RUNS[bench] for bench in records}


def failing(rows):
    return [(row.bench, row.metric) for row in rows if not row.passed]


def just_past(op, bound):
    if op == ">=":
        return math.nextafter(bound, -math.inf)
    return math.nextafter(bound, math.inf)


class BenchGateTest(unittest.TestCase):
    def check(self, records, status=None):
        return gate.check(outputs_of(records, status), BASELINES)

    def with_value(self, bench, metric, value):
        records = {b: dict(r) for b, r in PASSING.items()}
        records[bench][metric] = value
        return records

    def test_table_holds_the_fifteen_rows(self):
        table = [(bench, metric, op) for bench, _, _, checks in gate.GATES
                 for metric, op, _ in checks]
        self.assertEqual(table, [row[:3] for row in ROWS])

    def test_passing_records_pass_every_row(self):
        rows = self.check(PASSING)
        self.assertEqual(len(rows), len(ROWS) + len(gate.GATES))
        self.assertEqual(failing(rows), [])

    def test_each_row_passes_on_its_bound_and_fails_just_past_it(self):
        for bench, metric, op, bound in ROWS:
            with self.subTest(bench=bench, metric=metric):
                rows = self.check(self.with_value(bench, metric, bound))
                self.assertEqual(failing(rows), [])
                past = ([bound - 1, bound + 1] if op == "=="
                        else [just_past(op, bound)])
                for value in past:
                    rows = self.check(self.with_value(bench, metric, value))
                    self.assertEqual(failing(rows), [(bench, metric)])

    def test_micro_headline_is_judged_on_its_best_run(self):
        floor = 0.9 * BASELINES["micro_sim"]["events_per_sec"]
        outputs = outputs_of(PASSING)
        outputs["bench_micro_sim"] = [
            (0, stdout_of({"events_per_sec": value}))
            for value in (floor - 1, floor + 1, floor - 1)]
        self.assertEqual(failing(gate.check(outputs, BASELINES)), [])
        outputs["bench_micro_sim"][1] = (0, stdout_of(
            {"events_per_sec": floor - 1}))
        self.assertEqual(failing(gate.check(outputs, BASELINES)),
                         [("bench_micro_sim", "events_per_sec")])

    def test_best_run_is_the_highest_for_a_floor_the_lowest_for_a_cap(self):
        self.assertEqual(gate.best([2, 3, 1], ">=", 2), 3)
        self.assertEqual(gate.best([2, 1, 3], "<=", 2), 1)
        self.assertEqual(gate.best([1, 0, 2], "==", 0), 0)

    def test_passing_record_from_a_failed_run_fails(self):
        rows = self.check(PASSING, status={"bench_ablation_audit": 1})
        self.assertEqual(failing(rows), [("bench_ablation_audit", "exit")])
        # One failed run of three is enough.
        outputs = outputs_of(PASSING)
        outputs["bench_micro_server"][2] = (-11, "")
        self.assertEqual(failing(gate.check(outputs, BASELINES)),
                         [("bench_micro_server", "exit"),
                          ("bench_micro_server", "events_per_sec")])

    def test_bench_without_a_record_fails_its_rows(self):
        outputs = outputs_of(PASSING)
        outputs["bench_ablation_clock"] = [(0, "no record here\n{not json\n")]
        self.assertEqual(
            failing(gate.check(outputs, BASELINES)),
            [("bench_ablation_clock", metric) for bench, metric, _, _
             in ROWS if bench == "bench_ablation_clock"])

    def test_record_is_the_last_json_object_line(self):
        stdout = '{"bench":"old"}\n{"bench":"new","x":1}\n[1, 2]\ntrailer\n'
        self.assertEqual(gate.record_of(stdout), {"bench": "new", "x": 1})
        self.assertIsNone(gate.record_of("a\nb\n"))

    def test_baseline_is_the_first_line_of_its_file(self):
        with tempfile.TemporaryDirectory() as d:
            Path(d, "BENCH_x.json").write_text('{"v": 1}\n{"v": 2}\n')
            with mock.patch.object(gate, "ROOT", Path(d)):
                self.assertEqual(gate.load_baselines(), {"x": {"v": 1}})

    def test_committed_baselines_hold_every_field_the_table_reads(self):
        baselines = gate.load_baselines()
        for _, _, _, checks in gate.GATES:
            for _, _, bound in checks:
                if isinstance(bound, gate.Baseline):
                    self.assertIn(bound.field, baselines[bound.name])


if __name__ == "__main__":
    unittest.main()
