#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark from source with dune (perfbench/ is its own dune
project using the repository's libraries), runs it, checks that its last
output line names exactly the metrics and units BENCHMARK.json lists for
the mode (end-to-end with --trace 0, per-layer with --trace 1), and passes
its output and exit code through.  Without the repository's sources the
build fails and the script exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bin/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_result(line, spec, traced):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    table = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("nothing attempted")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not run: {e}")
    if build.returncode != 0:
        fail("build failed")
    try:
        proc = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode} without a result")
    check_result(lines[-1], spec, args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
