#!/usr/bin/env python3
"""The benchmark's own test: equal seeds give equal answers and counters.

    python3 perfbench/test_determinism.py [--seconds 2]

Runs every workload twice with the same seed, traced and untraced, and
requires identical answer digests and exact work counters (stage counters,
replayed stage-3 counters, WAL bytes) across the two runs, plus
"correct": true and no failed operations in each run. Exits 1 on any
difference.
"""

import argparse
import json
import os
import subprocess
import sys

EXACT_PREFIXES = ("answers ", "counters ", "replay_counters ", "storage ")


def run(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, []
    return json.loads(lines[-1]), [l for l in lines
                                   if l.startswith(EXACT_PREFIXES)]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="2")
    parser.add_argument("--seed", default="7")
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first = run(root, workload, args.seed, args.seconds, trace)
            second = run(root, workload, args.seed, args.seconds, trace)
            good = True
            for result, _ in (first, second):
                if (result is None or not result["correct"] or
                        result["failed"] != 0):
                    good = False
            if first[1] != second[1] or not first[1]:
                good = False
                for a, b in zip(first[1], second[1]):
                    if a != b:
                        print("  first:  " + a + "\n  second: " + b)
            print("%-14s trace=%d %s (%d exact lines)" %
                  (workload, trace, "ok" if good else "FAILED", len(first[1])))
            ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
