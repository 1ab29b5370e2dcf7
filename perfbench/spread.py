#!/usr/bin/env python3
"""Runs one workload of the repo benchmark several times, each with another
seed, and prints per metric the median and the quartile spread (distance
between the first and third quartile as a share of the median), next to the
bound BENCHMARK.json fixes. Run from the root of the repository:

    python3 perfbench/spread.py --workload table2 --runs 10

A spread above its bound means the metric cannot resolve a change of that
size on this host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: done", file=sys.stderr)

    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:36s} median {median:14.6g}  spread {spread:6.3f}"
              f"  bound {bound if bound is not None else '-'}{flag}")
        print("    " + " ".join(f"{v:.5g}" for v in vals))


if __name__ == "__main__":
    main()
