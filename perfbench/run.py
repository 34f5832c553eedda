#!/usr/bin/env python3
"""Benchmark entry point for adaptviz.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the C++ harness (and the adaptviz libraries under src/) into
.bench_build/perfbench, generates the workload's scenario from the seed,
runs the harness, and passes on its output. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Workloads, metrics and checks are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Digests of each workload's outputs at its default seed.
GOLDEN = os.path.join(HERE, "golden.json")
HARNESS_TIMEOUT_S = 170

# Each workload: the checked-in scenario it starts from, the seed its golden
# digest was recorded at, and the [section] key = value edits that make it.
# A coarser compute grid (compute_scale) keeps one operation of the two
# longer workloads to a few seconds, so a measured run holds several of them.
# The framework still reasons about the same modeled resolutions; only the
# grid the shallow-water core integrates is smaller.
WORKLOADS = {
    "aila-opt": {
        "scenario": "scenarios/inter_department_opt.ini",
        "default_seed": 42,
        "edits": [],
    },
    "aila-greedy-codec": {
        "scenario": "scenarios/inter_department_opt.ini",
        "default_seed": 42,
        "edits": [
            ("experiment", "name", "aila-greedy-codec"),
            ("experiment", "algorithm", "greedy-threshold"),
            ("experiment", "compute_scale", "12"),
            ("codec", "enabled", "true"),
        ],
    },
    "paper-suite": {
        "scenario": "scenarios/paper_suite.ini",
        "default_seed": 42,
        "edits": [("experiment", "compute_scale", "20")],
    },
    "explore-smoke": {
        "scenario": "scenarios/explore_smoke.ini",
        "default_seed": 7,
        "edits": [],
    },
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def set_ini(lines, section, key, value):
    """Sets `key = value` in [section], adding the key or section if absent."""
    current, insert_at = None, None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if current == section:
                break
            current = stripped[1:-1].strip()
            if current == section:
                insert_at = i + 1
            continue
        if current == section:
            name = stripped.split("=", 1)[0].strip()
            if "=" in stripped and name == key:
                lines[i] = f"{key} = {value}"
                return
            if stripped and not stripped.startswith(("#", ";")):
                insert_at = i + 1
    if insert_at is None:
        lines.extend(["", f"[{section}]"])
        insert_at = len(lines)
    lines.insert(insert_at, f"{key} = {value}")


def generate_input(workload, seed):
    spec = WORKLOADS[workload]
    with open(os.path.join(ROOT, spec["scenario"]), encoding="utf-8") as f:
        lines = f.read().splitlines()
    for section, key, value in spec["edits"] + [("experiment", "seed", str(seed))]:
        set_ini(lines, section, key, value)
    os.makedirs(os.path.join(BUILD, "inputs"), exist_ok=True)
    path = os.path.join(BUILD, "inputs", f"{workload}-seed{seed}.ini")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no adaptviz sources next to the benchmark (src/ is missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_harness", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench_harness")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = WORKLOADS[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        fail("--seed must be non-negative")
    expected = expected_metrics(args.trace)
    harness = build()
    golden = ""
    if seed == spec["default_seed"]:
        with open(GOLDEN, encoding="utf-8") as f:
            golden = json.load(f)[args.workload]

    out_dir = os.path.join(BUILD, "out", args.workload)
    cmd = [harness, "--workload", args.workload, "--seed", str(seed),
           "--input", generate_input(args.workload, seed), "--out", out_dir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if golden:
        cmd += ["--golden", golden]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    emitted = set(result["metrics"])
    if emitted != expected:
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(expected - emitted)}, unexpected {sorted(emitted - expected)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
