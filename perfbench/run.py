#!/usr/bin/env python3
"""Build and run the StackScope benchmark (perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single_core_long --seed 1 \
        --seconds 10 --trace 0

Workloads: single_core_long, paper_batch, serve_mixed, or `all` to run
the three in one process. The build goes to .bench_build/perfbench and
every file a run writes goes to .bench_out/, both under the checkout.
Build output goes to stderr; the last line of stdout is the result
object. The exit code is non-zero when the build fails or any output
check fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR],
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "perfbench", "stackscope_cli"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            sys.exit(2)


def main():
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--daemon", os.path.join(BUILD_DIR, "stackscope"),
           "--expected", os.path.join(BENCH_DIR, "expected"),
           "--out", OUT_DIR] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
