#!/usr/bin/env python3
"""Build the clustersim benchmark from source and run it.

    python3 clusterbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clusterbench/run.py --self-test

Run from the root of a clustersim checkout. The first run configures and
builds a Release tree under .bench_build/clusterbench (under a minute on
4 cores);
later runs only re-check it. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when the build fails or the sources are missing.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "clusterbench")
BINARY = os.path.join(BUILD, "clusterbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "clusterbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def check_metric_names():
    """The binary's metric tables must match BENCHMARK.json exactly."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    have = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name = line.split()
        have[kind].append(name)
    ok = True
    for kind in have:
        want = [m["name"] for m in spec[kind]]
        if want != have[kind]:
            print(f"self-test FAILED: BENCHMARK.json {kind} {want} != "
                  f"binary {have[kind]}")
            ok = False
    return ok


def main():
    if not build():
        print("clusterbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    cmd = [BINARY, *args, "--scratch", ".bench_build"]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"clusterbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if code == 0 and "--self-test" in args and not check_metric_names():
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
