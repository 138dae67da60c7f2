#!/usr/bin/env python3
"""Builds and runs the warehouse-day benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload online_day --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) compiles the library from
src/ into .bench_build/perfbench in Release mode; later runs rebuild only
what changed. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. Traced runs write their spans to
.bench_build/traces/. Exits non-zero, without a result, when the library
sources are missing, the build fails, or any output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("refresh", "analyst", "online_day")
# A backstop: warehouse_day itself gives up after 150 s.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} exceeded {RUN_TIMEOUT_S} s")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the helpers' self-test instead")
    args = p.parse_args()

    if args.selftest:
        sys.exit(run([build("support_test")]))
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    binary = build("warehouse_day")
    os.makedirs(TRACES, exist_ok=True)
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--trace-dir", TRACES]))


if __name__ == "__main__":
    main()
