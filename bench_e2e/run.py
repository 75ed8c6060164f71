#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload sync-small --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/bench_e2e under the current directory and is
incremental, so only the first run pays for it.  Build output goes to
standard error; the benchmark's own output, ending in one JSON line, goes
to standard output.  A failed build exits non-zero without printing a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.join(os.getcwd(), ".bench_build", "bench_e2e")
    if not build(build_dir):
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "bench_e2e")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
