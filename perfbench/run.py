#!/usr/bin/env python3
"""Builds and runs pimlib's host-performance benchmark.

    python3 perfbench/run.py --workload churn|fanout|refresh|check \
        --seed N --seconds T --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (pimlib's src/ tree plus perfbench.cpp) into .bench_build/perfbench;
later runs only re-check the build. The binary's stdout is passed through:
informational JSON lines, then one result line
{"correct", "attempted", "failed", "metrics"} whose metric names and units
are checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1). Any build, run or format failure exits non-zero without
printing a result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("churn", "fanout", "refresh", "check")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return BINARY if BINARY.exists() else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """Returns an error message, or None when `result` is well formed."""
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a non-negative integer"
    if result["attempted"] < 1:
        return "no operations attempted"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names differ: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        entry = metrics[name]
        if entry.get("unit") != unit:
            return f"{name}: unit {entry.get('unit')!r} != {unit!r}"
        if not isinstance(entry.get("value"), (int, float)):
            return f"{name}: value is not a number"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: binary exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        error = validate(result, expected_metrics(args.trace))
    except (ValueError, OSError, KeyError) as exc:
        error = str(exc)
    if error is not None:
        print(f"perfbench: malformed result: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n") else proc.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
