#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/test_smoke.py

For each workload it runs perfbench/run.py --size smoke with tracing off
and on, and checks that the run passes its correctness gate and prints
exactly the end-to-end (trace 0) or per-layer (trace 1) metrics that
BENCHMARK.json names, each with its unit. Takes well under a minute
after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s"
                             % (" ".join(cmd), proc.returncode, proc.stdout))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError("%s: missing %s, unexpected %s, wrong unit %s"
                             % (what, missing, extra, wrong))
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s: correctness gate failed" % what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        expect_metrics(run(workload, 0), spec["end_to_end"],
                       workload + " trace 0")
        expect_metrics(run(workload, 1), spec["per_layer"],
                       workload + " trace 1")
        print("ok  %s" % workload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print("FAIL %s" % err)
        sys.exit(1)
