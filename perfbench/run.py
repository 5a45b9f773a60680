#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload prod_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (a CMake project that
compiles the library from src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload. The binary's report goes to
stdout; the last line is one JSON object with the keys correct, attempted,
failed and metrics. The metric names are checked against BENCHMARK.json
(end_to_end for --trace 0, per_layer for --trace 1) before that line is
printed. Exit codes: 0 ok, 1 wrong answer, 2 set-up or usage error,
3 a report that does not match BENCHMARK.json, 4 timeout.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "query_service.h")):
        fail(2, "library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Returns the reasons `line` is not a valid result, or []."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {expected[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(2, "BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(2, f"unknown workload {args.workload}")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(2, f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    if proc.returncode not in (0, 1):
        fail(proc.returncode or 2, f"benchmark exited with {proc.returncode}")
    problems = check_result(lines[-1], expected_metrics(spec, args.trace))
    if problems:
        fail(3, "; ".join(problems))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
