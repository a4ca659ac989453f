#!/usr/bin/env python3
"""Records repeated benchmark runs for compare.py.

    python3 perfbench/record.py --out before.json [--seeds 1-10]
        [--workloads ppi-draws,serve-churn]

Runs perfbench/run.py untraced once per (workload, seed), with the run
length from BENCHMARK.json, and writes {"workload": [result, ...]} where each result is
the run's JSON line plus its seed. Prints each end-to-end metric's median
and quartile spread per workload when done.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    recording = {}
    for workload in args.workloads.split(","):
        runs = recording.setdefault(workload, [])
        for seed in parse_seeds(args.seeds):
            command = [sys.executable,
                       os.path.join(root, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed" % (workload, seed))
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["log"] = lines[:-1]
            runs.append(result)
            print("%s seed %d correct=%s attempted=%d failed=%d" %
                  (workload, seed, result["correct"], result["attempted"],
                   result["failed"]), flush=True)
    with open(args.out, "w") as f:
        json.dump(recording, f, indent=1)

    for workload, runs in recording.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
            else:
                spread = 0.0
            print("%-14s %-34s median %12.4f  spread %.3f" %
                  (workload, name, median, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
