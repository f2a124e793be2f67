#!/usr/bin/env python3
"""Build and run the casvm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
casvm libraries and the benchmark program under .bench_build/perfbench
(Release); later calls only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Extra
arguments (--tiny, --corrupt-reply <k>) pass through to the program.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "casvm_perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "casvm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(BUILD, "out")
    cmd = [BINARY, "--out-dir", out_dir] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
