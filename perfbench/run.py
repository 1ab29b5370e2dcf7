#!/usr/bin/env python3
"""The repo benchmark: TPC-B throughput per Table 2 protection scheme, plus
commit latency, restart and checkpoint time, on three workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

It builds the cwdb library and cwdb_perfbench (perfbench/cwdb_perfbench.cc)
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, checks the binary's correctness verdict, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end_to_end metrics of BENCHMARK.json, and
--trace 1 the per_layer metrics from a run that records one span per
Database call (written to <build>/traces/<workload>.spans.csv).

Without --workload it runs every workload once and prints each one's metrics.
Databases live under <build>/data while a run lasts and are removed after it.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2", "read_mostly", "durable_commit")
# A run must end within 180 s, the first one of a checkout (which builds)
# within 900 s.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 700


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds cwdb_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("cwdb sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "cwdb_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "cwdb_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_binary(binary, args, timeout):
    """Runs cwdb_perfbench, echoing its report lines; returns (code, last
    line)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"cwdb_perfbench timed out after {timeout:.0f} s")
    lines = stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, (lines[-1] if lines else "")


def check_result(result, trace):
    """Returns a list of problems with a cwdb_perfbench result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
        return problems
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"want {unit}")
        elif not math.isfinite(m.get("value", math.nan)):
            problems.append(f"metric {name} is not a number")
        elif not trace and m["value"] <= 0:
            problems.append(f"metric {name} is {m['value']}, not positive")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not declared")
    return problems


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the result object (or exits on error)."""
    started = time.monotonic()
    data = os.path.join(build_dir(), "data", f"{workload}-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--dir", data]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces,
                                             f"{workload}.spans.csv")]
    try:
        code, last = run_binary(binary, args,
                                RUN_TIMEOUT_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(data, ignore_errors=True)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail(f"cwdb_perfbench exited {code} without a result")
    problems = check_result(result, trace)
    if problems:
        fail("; ".join(problems))
    if code != 0 or not result["correct"]:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build_started = time.monotonic()
    binary = build()
    print(f"perfbench: build took {time.monotonic() - build_started:.1f} s",
          file=sys.stderr)

    if args.workload is None:
        all_correct = True
        for workload in WORKLOADS:
            result = run_one(binary, workload, args.seed, args.seconds,
                             args.trace)
            all_correct = all_correct and result["correct"]
            print(f"== {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"   {name:36s} {m['value']:16.6g} {m['unit']}")
        sys.exit(0 if all_correct else 1)

    result = run_one(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
