#!/usr/bin/env python3
"""Self-test of the casvm benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. Checks that
  * every workload's untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json, each with its unit, and passes its output checks;
  * every traced run prints exactly the per-layer metrics, with units;
  * perfbench/layers.json maps every per-layer metric;
  * a deliberately corrupted serve reply is counted as a failure and makes
    the run exit non-zero, so the correctness gate can fail;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def metric_units(result):
    return {name: m.get("unit") for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    check(set(layers) == set(per_layer),
          "layers.json maps exactly the per-layer metrics")
    for name, entry in layers.items():
        named = set(entry["on"]) | set(entry["no_change_on"])
        check(named <= set(workloads) and set(entry["moves"]) <= set(end_to_end),
              f"layers.json entry {name} names known workloads and metrics")

    for w in workloads:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            code, result, err = run(["--workload", w, "--seed", "7",
                                     "--seconds", "6", "--trace", trace,
                                     "--tiny"])
            label = f"{w} --trace {trace}"
            check(code == 0 and result is not None,
                  f"{label}: exits 0 with a JSON result")
            if result is None:
                sys.stderr.write(err[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly the four keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: all output checks pass")
            check(metric_units(result) == expected,
                  f"{label}: prints every metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) for v in values),
                  f"{label}: every value is a number")

    code, result, _ = run(["--workload", "serve-open", "--seed", "7",
                           "--seconds", "2", "--trace", "0", "--tiny",
                           "--corrupt-reply", "5"])
    check(code != 0 and result is not None and result["correct"] is False
          and result["failed"] >= 1,
          "a corrupted serve reply is counted as a failure and exits non-zero")

    bare = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(
        ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(["--workload", "serve-open", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0 and result is None,
              "without the sources the command fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
