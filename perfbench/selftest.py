#!/usr/bin/env python3
"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py [--workloads a,b]

1. Every workload, with --trace 0 and --trace 1, emits exactly the metrics
   BENCHMARK.json names, reports correct outputs at its default seed, and
   every end-to-end value is positive.
2. A tampered golden digest is reported as a failed operation.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build", "selftest")


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def result_of(lines):
    return json.loads(lines[-1])


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--seconds", "1",
                               "--trace", str(trace)])
            check(code == 0 and bool(lines),
                  f"{workload} --trace {trace} exits 0 with a result")
            result = result_of(lines)
            wanted = {m["name"] for m in bench[key]}
            check(set(result["metrics"]) == wanted,
                  f"{workload} --trace {trace} emits every {key} metric")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} --trace {trace} outputs are correct")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{workload} end-to-end values are positive")

    # The harness itself, handed a wrong golden digest.
    workload = "explore-smoke"
    seed = bench_run.WORKLOADS[workload]["default_seed"]
    proc = subprocess.run(
        [bench_run.build(), "--workload", workload, "--seed", str(seed),
         "--input", bench_run.generate_input(workload, seed),
         "--out", os.path.join(WORKDIR, "tampered"), "--seconds", "1",
         "--trace", "0", "--golden", "0" * 16],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = result_of(lines) if proc.returncode == 0 and lines else None
    check(result is not None and not result["correct"] and result["failed"] > 0,
          "a tampered golden digest is reported as a failure")

    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", "aila-opt", "--seed", "1", "--seconds",
                       "1", "--trace", "0"], cwd=bare)
    printed_result = bool(lines) and lines[-1].startswith("{")
    check(code != 0 and not printed_result,
          "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
