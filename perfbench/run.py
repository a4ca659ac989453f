#!/usr/bin/env python3
"""Builds and runs the pgsim end-to-end benchmark.

    python3 perfbench/run.py --workload ppi-draws --seed 1 --seconds 12 --trace 0

Run from the repository root. The driver (driver.cc) is compiled together
with the library sources under src/ into
$CARGO_TARGET_DIR/perfbench-<hash of this checkout's path> (default
.bench_build/...), so checkouts sharing one CARGO_TARGET_DIR never build each
other's sources; the first run builds, later runs reuse the build. Build
output goes to stderr, so the last line of stdout is the driver's JSON
result. Exits non-zero when the build or the run fails, or when a check of
the answers failed.
"""

import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha1(root.encode()).hexdigest()[:12]
    build = os.path.join(root, build_root, "perfbench-" + tag)
    source = os.path.join(root, "perfbench")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build, ignore_errors=True)
            return 1
    if subprocess.run(["cmake", "--build", build, "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        return 1

    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(build, "pgsim_perfbench")] + sys.argv[1:] + [
        "--work-dir", work]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
