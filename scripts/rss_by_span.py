#!/usr/bin/env python3
"""Resident memory of one traced benchmark rep, span by span.

    scripts/rss_by_span.py <edhp_bench> <workload> [--seed N] [--smoke]

Runs one traced rep of <workload> as edhp_bench runs its reps (the child
flags --child, --seed, --cpus and --traced, in a fresh temporary directory).
While it runs, samples the rep's resident set from /proc/<pid>/statm about
every millisecond, each sample stamped with CLOCK_MONOTONIC: the clock of
the `span <name> <start_ns> <end_ns>` lines the rep writes to report.txt.
Then prints, for every span, the RSS at its start, at its end and its peak
inside it, and names the innermost span that holds the rep's overall peak.

The default seed is the benchmark's default campaign seed, 20081001.
Exits 1 if the rep fails (non-zero exit or an incomplete report), 2 on a
usage error.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

DEFAULT_SEED = 20081001
INTERVAL_S = 0.001
MIB = 1024 * 1024


def sample(proc, page_bytes):
    """(monotonic_ns, rss_bytes) about every INTERVAL_S until proc exits."""
    samples = []
    fd = os.open(f"/proc/{proc.pid}/statm", os.O_RDONLY)
    try:
        while proc.poll() is None:
            try:
                fields = os.pread(fd, 128, 0).split()
            except OSError:  # the rep is gone
                break
            now = time.monotonic_ns()
            # A rep that has exited but is not yet reaped reads 0 pages.
            if len(fields) > 1 and int(fields[1]) > 0:
                samples.append((now, int(fields[1]) * page_bytes))
            time.sleep(INTERVAL_S)
    finally:
        os.close(fd)
    return samples


def read_report(path):
    """Spans [(name, start_ns, end_ns)] and the t_entry/t_done stamps."""
    spans, stamps = [], {}
    with open(path) as f:
        for line in f:
            words = line.split()
            if not words:
                continue
            if words[0] == "span" and len(words) == 4:
                spans.append((words[1], int(words[2]), int(words[3])))
            elif words[0] in ("t_entry", "t_done") and len(words) == 2:
                stamps[words[0]] = int(words[1])
    return spans, stamps


def rss_at(samples, t):
    """RSS of the last sample at or before t (the first one if none)."""
    lo, hi = 0, len(samples)
    while lo < hi:
        mid = (lo + hi) // 2
        if samples[mid][0] <= t:
            lo = mid + 1
        else:
            hi = mid
    return samples[max(lo - 1, 0)][1]


def peak_in(samples, start, end):
    inside = [rss for t, rss in samples if start <= t <= end]
    return max(inside + [rss_at(samples, start), rss_at(samples, end)])


def main():
    parser = argparse.ArgumentParser(
        description="RSS of one traced edhp_bench rep, span by span.")
    parser.add_argument("bench", help="path to the edhp_bench binary")
    parser.add_argument("workload", help="a workload edhp_bench knows")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true",
                        help="the workload's smoke scale")
    args = parser.parse_args()

    cpus = ",".join(str(c) for c in sorted(os.sched_getaffinity(0)))
    command = [os.path.abspath(args.bench), f"--child={args.workload}",
               f"--seed={args.seed}", f"--cpus={cpus}", "--traced"]
    if args.smoke:
        command.append("--smoke")

    with tempfile.TemporaryDirectory(prefix="rss-by-span.") as scratch:
        proc = subprocess.Popen(command, cwd=scratch,
                                stdout=subprocess.DEVNULL)
        try:
            samples = sample(proc, os.sysconf("SC_PAGE_SIZE"))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        report = os.path.join(scratch, "report.txt")
        spans, stamps = ([], {})
        if os.path.exists(report):
            spans, stamps = read_report(report)

    if proc.returncode != 0 or "t_done" not in stamps or not samples:
        print(f"rss_by_span: the {args.workload} rep failed "
              f"(exit {proc.returncode}, {len(samples)} samples)",
              file=sys.stderr)
        return 1

    origin = stamps["t_entry"]
    spans.sort(key=lambda s: (s[1], -s[2]))
    gaps = [b[0] - a[0] for a, b in zip(samples, samples[1:])]
    mean_gap_ms = sum(gaps) / len(gaps) / 1e6 if gaps else 0.0
    print(f"{args.workload} seed {args.seed}"
          f"{' --smoke' if args.smoke else ''}: {len(samples)} RSS samples, "
          f"one every {mean_gap_ms:.2f} ms on average; times from the "
          f"campaign call")
    print(f"{'span':<34} {'from s':>8} {'to s':>8} {'start MiB':>10} "
          f"{'end MiB':>9} {'peak MiB':>9}")
    for name, start, end in spans:
        depth = sum(1 for n, s, e in spans
                    if (s, e) != (start, end) and s <= start and end <= e)
        label = "  " * depth + name
        print(f"{label:<34} {(start - origin) / 1e9:8.3f} "
              f"{(end - origin) / 1e9:8.3f} "
              f"{rss_at(samples, start) / MIB:10.1f} "
              f"{rss_at(samples, end) / MIB:9.1f} "
              f"{peak_in(samples, start, end) / MIB:9.1f}")

    peak_t, peak_rss = max(samples, key=lambda s: s[1])
    holders = [s for s in spans if s[1] <= peak_t <= s[2]]
    if holders:
        where = "in " + min(holders, key=lambda s: s[2] - s[1])[0]
    elif peak_t < origin:
        where = "before the campaign call (set-up)"
    else:
        where = "outside every span"
    print(f"peak {peak_rss / MIB:.1f} MiB at {(peak_t - origin) / 1e9:.3f} s, "
          f"{where}; last sample {samples[-1][1] / MIB:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
