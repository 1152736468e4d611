#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload stellar_oneshot --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out runs.json

For every end-to-end metric it prints the median over the runs, the
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json; a spread at or above a third of
the bound is flagged. With --trace 1 it reports the per-layer metrics (which
have no bound). --out saves every run's raw result for later comparison.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"run failed (exit {done.returncode}): {' '.join(cmd)}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def report(workload, runs, metrics):
    print(f"== {workload}: {len(runs)} runs")
    for spec in metrics:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = spec.get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else "WIDE"
            flag += f" (bound {bound})"
        print(f"  {name:32s} median {med:<14.6g} q1 {q1:<14.6g} "
              f"q3 {q3:<14.6g} spread {spread:7.4f} {flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write raw results as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    raw = {}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        raw[workload] = runs
        report(workload, runs, metrics)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
