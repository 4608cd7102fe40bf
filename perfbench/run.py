#!/usr/bin/env python3
"""Build and run the end-to-end misam serving benchmark.

    python3 perfbench/run.py --workload cli_replay|fleet_cold|fleet_warm \
        --seed N --seconds T --trace 0|1 [--size full|smoke]

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the misam library from src/ plus the benchmark
program perfbench_e2e) into $CARGO_TARGET_DIR, or .bench_build when that is unset, then
runs one workload. Matrix Market files and emitted results go to a
scratch directory inside the build directory, removed afterwards; the
spans of a traced run are kept in <build>/traces/.

The stdout of perfbench_e2e is passed through. Its last line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
0 only when the build succeeded, the run passed its correctness gate and
that line is well formed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure (once) and build; returns the path of perfbench_e2e."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_e2e",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_e2e")


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are " + ", ".join(sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            raise ValueError("malformed metric " + name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_replay", "fleet_cold", "fleet_warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1

    work = os.path.join(out_dir, "work-%d" % os.getpid())
    traces = os.path.join(out_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", work, "--spans",
           os.path.join(traces, "%s-seed%d.jsonl" % (args.workload,
                                                     args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = check_result(lines[-1] if lines else "")
    except ValueError as err:
        print("perfbench: bad result line: %s" % err, file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
