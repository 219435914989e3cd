"""Summarise the runs benchmark/ab.sh made.

usage: ab_report.py <dir of <workload>-<pair>-<base|head>.txt> <BENCHMARK.json>

For each workload and end-to-end metric, prints each side's median and
quartiles, the head's win share over the pairs, and a verdict:

  gain        the head wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the base's quartile spread
  regression  the head's median is worse than the base's by more than the
              metric's bound
  unresolved  the base's own spread exceeds the bound, and not every head
              run beats every base run
  same        none of the above

Failed checks and any base/head difference in the published records or the
figures are flagged per pair.
"""

import json
import pathlib
import re
import statistics
import sys

RECORDS = re.compile(
    r"^\S+\.records (\d+) count\s+\[fingerprint (\w+) figures_fp (\w+)\]")


def parse(path):
    lines = path.read_text().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    outputs = None
    for line in lines:
        m = RECORDS.match(line)
        if m:
            outputs = m.groups()
    return result, outputs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, head, better, bound):
    b_q1, b_med, b_q3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    share = wins / len(base)
    gap = sign * (b_med - h_med)
    all_better = max(sign * h for h in head) < min(sign * b for b in base)
    if share >= 0.9 and gap > b_q3 - b_q1:
        return share, "gain"
    if -gap > bound * b_med:
        return share, "regression"
    if (b_q3 - b_q1) > bound * b_med and not all_better:
        return share, "unresolved"
    return share, "same"


def main():
    out_dir = pathlib.Path(sys.argv[1])
    spec = json.loads(pathlib.Path(sys.argv[2]).read_text())
    runs = {}
    for path in sorted(out_dir.glob("*.txt")):
        workload, pair, side = path.stem.rsplit("-", 2)
        runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = parse(path)

    problems = []
    print(f"{'workload':<12} {'metric':<14} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'wins':>5}  verdict")
    for workload, pairs in runs.items():
        complete = [p for _, p in sorted(pairs.items())
                    if p.get("base", (None,))[0] and p.get("head", (None,))[0]]
        for n, p in sorted(pairs.items()):
            for side in ("base", "head"):
                result = p.get(side, (None, None))[0]
                if result is None or not result["correct"]:
                    problems.append(f"{workload} pair {n}: {side} failed its checks")
            if p.get("base", (0, 0))[1] != p.get("head", (0, 0))[1]:
                problems.append(f"{workload} pair {n}: published records or "
                                f"figures differ: base {p['base'][1]} "
                                f"head {p['head'][1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [p["base"][0]["metrics"][name]["value"] for p in complete
                    if name in p["base"][0]["metrics"]]
            head = [p["head"][0]["metrics"][name]["value"] for p in complete
                    if name in p["head"][0]["metrics"]]
            if not base or len(base) != len(head):
                print(f"{workload:<12} {name:<14} no complete pairs")
                continue
            share, word = verdict(base, head, metric["better"], metric["bound"])
            cols = []
            for values in (base, head):
                q1, med, q3 = quartiles(values)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<12} {name:<14} {cols[0]:<34} {cols[1]:<34} "
                  f"{share:>5.0%}  {word}")
    for line in problems:
        print("FLAG:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
