#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout configures and builds perfbench/ (the library
sources under src/ plus the benchmark binary) into .bench_build/perfbench;
later runs only re-check that build. The binary's output is relayed
unchanged: its last line is the JSON result. The exit code is the binary's
(non-zero on a correctness violation, a build failure or a timeout).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "scup_perfbench"
WORKLOADS = ("stellar_oneshot", "ledger_chain", "churn_faults", "bftcup_scale")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR.parent / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = BUILD_DIR.parent / "spans" / f"{args.workload}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    # Relay everything but the result, then the result line last.
    if len(lines) > 1:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no JSON result line", file=sys.stderr)
        return done.returncode or 5
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return done.returncode or 5
    print(lines[-1])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
