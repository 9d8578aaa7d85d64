#!/usr/bin/env python3
"""Build pathbench from source and run one workload of the benchmark.

Usage, from the root of a checkout:

    python3 pathbench/run.py --workload census|publish|query \
        --seed N --seconds S --trace 0|1

The program is built in Release with CMake under $CARGO_TARGET_DIR
(default .bench_build), then run. Its stdout ends with one JSON object of
every metric it measured; this script keeps the metrics BENCHMARK.json
names (end_to_end with --trace 0, per_layer with --trace 1), checks each
is present and finite, and prints the result as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit codes: 0 when every operation and check passed, 1 when one failed
or a metric is missing, 2 when the sources or the build are unusable.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(build_root):
    """Configure once, then build the pathbench target; returns the binary."""
    build_dir = os.path.join(build_root, "pathbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pathbench",
                    "--parallel", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pathbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no LACeS sources next to", HERE, "- nothing to benchmark")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed:", e)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "pathbench-work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("pathbench did not finish within", RUN_TIMEOUT_S, "s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("pathbench exited with", proc.returncode)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics, missing = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]) or \
                got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = got
    if missing:
        log("missing, non-finite or mis-unitted metrics:", ", ".join(missing))
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
