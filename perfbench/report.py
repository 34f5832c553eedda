#!/usr/bin/env python3
"""Runs every benchmark workload once and prints one table of results.

    python3 perfbench/report.py [--seconds S] [--trace] [--seed N]

Without --trace the table holds the end-to-end metrics plus failed_frac
(failed / attempted operations); with --trace, the per-layer metrics.
Each workload runs at its default seed unless --seed is given, for
BENCHMARK.json's run_seconds unless --seconds is given.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--trace", "1" if args.trace else "0"]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.splitlines()[-1])

    names = list(results)
    metrics = [m for m in next(iter(results.values()))["metrics"]]
    width = max(len(m) for m in metrics + ["failed_frac"]) + 2
    print("metric".ljust(width) + "unit".ljust(10) + "".join(n.rjust(20) for n in names))
    rows = [(m, results[names[0]]["metrics"][m]["unit"],
             [results[n]["metrics"][m]["value"] for n in names]) for m in metrics]
    if not args.trace:
        rows.append(("failed_frac", "ratio",
                     [results[n]["failed"] / results[n]["attempted"] for n in names]))
    for name, unit, values in rows:
        print(name.ljust(width) + unit.ljust(10) + "".join(f"{v:20.6g}" for v in values))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
