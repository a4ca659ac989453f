#!/usr/bin/env python3
"""Compares two benchmark recordings made by record.py.

    python3 perfbench/compare.py parent.json change.json

For each workload and end-to-end metric in BENCHMARK.json it prints both
medians, both quartile pairs, the metric's fixed bound and a verdict:

  improved    the change wins at least 9 of 10 seed-paired runs (ties count
              for neither) and the medians differ by more than the parent's
              quartile distance;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own quartile spread is wider than the bound, and
              not every run of the change reads better than every run of
              the parent;
  unchanged   otherwise.

It also compares the failed share (failed / attempted) per workload.
Exits 1 when any metric regressed, the failed share grew, or a run of the
change reported incorrect answers.
"""

import json
import os
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """parent/change: {seed: value}. Returns one of the four verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    a = list(parent.values())
    b = list(change.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    if (seeds and wins >= 0.9 * len(seeds) and sign * (med_b - med_a) > 0
            and abs(med_b - med_a) > q3 - q1):
        return "improved"
    if med_a and sign * (med_b - med_a) < -bound * abs(med_a):
        return "regressed"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if med_a and (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        parent = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)

    bad = False
    print("%-14s %-14s %11s %23s %11s %23s %6s  %s" %
          ("workload", "metric", "parent", "parent q1..q3", "change",
           "change q1..q3", "bound", "verdict"))
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in parent or name not in change:
            print("%-14s missing from a recording" % name)
            bad = True
            continue
        runs_a, runs_b = parent[name], change[name]
        if not all(r["correct"] for r in runs_b):
            print("%-14s change reported incorrect answers" % name)
            bad = True
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = {r["seed"]: r["metrics"][key]["value"] for r in runs_a}
            b = {r["seed"]: r["metrics"][key]["value"] for r in runs_b}
            v = verdict(a, b, metric["better"], metric["bound"])
            bad |= v == "regressed"
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            print("%-14s %-14s %11.4f %11.4f..%-11.4f %11.4f %11.4f..%-11.4f "
                  "%6.2f  %s" %
                  (name, key, statistics.median(a.values()), qa[0], qa[1],
                   statistics.median(b.values()), qb[0], qb[1],
                   metric["bound"], v))
        failed_a = sum(r["failed"] for r in runs_a) / max(
            1, sum(r["attempted"] for r in runs_a))
        failed_b = sum(r["failed"] for r in runs_b) / max(
            1, sum(r["attempted"] for r in runs_b))
        grew = failed_b > failed_a
        bad |= grew
        print("%-14s %-14s %11.6f %35s %11.6f %35s %6s  %s" %
              (name, "failed_share", failed_a, "", failed_b, "", "",
               "regressed" if grew else "unchanged"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
