#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the prediction library and the
benchmark program from source into $CARGO_TARGET_DIR (default .bench_build),
runs the self-test of the benchmark's arithmetic, then runs the program with
the workload's parameters from perfbench/workloads.json. The program's last
line of standard output is the result object; build output goes to standard
error. Exits non-zero when the build, the self-test or the run fails, or
when any served prediction is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def flatten(prefix, value, out):
    """Flattens nested dicts and lists into dotted key=value arguments."""
    if isinstance(value, dict):
        for key, sub in value.items():
            flatten(f"{prefix}.{key}" if prefix else key, sub, out)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            flatten(f"{prefix}.{i}", sub, out)
    else:
        out.append(f"{prefix}={value}")


def run_quiet(cmd):
    """Runs a build step with its output on standard error."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 3

    params = []
    flatten("", config["workloads"][args.workload], params)
    flatten("quality", config["quality"], params)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(build_dir, f"spans-{args.workload}.tsv")] + params
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
