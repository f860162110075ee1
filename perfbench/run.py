#!/usr/bin/env python3
"""Builds and runs the treedl wall-clock benchmark.

    python3 perfbench/run.py --workload cold_session|warm_session|server_mix \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It configures and builds perfbench/ (a CMake
package that compiles the library sources one directory up) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
binary. The binary's report lines pass through; the last line printed is one
JSON object with "correct", "attempted", "failed" and "metrics". Exits non-zero,
without that line, when the build, the run or the result's shape fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/; nothing to build")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS, "--target",
         "perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation was attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("metrics do not match BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_session", "warm_session", "server_mix"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
