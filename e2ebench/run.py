#!/usr/bin/env python3
"""Builds and runs the end-to-end ARSP benchmark (BENCH.md is its glossary).

Run from the root of a checkout of the repository:

  python3 e2ebench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --self-test

The first call compiles the repository's library sources and the benchmark
into .bench_build/e2ebench; later calls only rebuild what changed. One
workload prints a table of its metrics and, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every workload in its own process. Exit
status: 0 when every answer was correct, 1 on a wrong answer or failed
request, 2 when the build or set-up fails (no result is printed), 3 when a
workload process overran its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["solve-nba", "solve-large", "serve-hot", "cluster-scatter"]
# A run must end within 180 s; a process still running after this is killed.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.path.join(".bench_build", "e2ebench"))


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                return fail_build(log_path, out)
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
        if subprocess.call(command, stdout=log, stderr=log) != 0:
            return fail_build(log_path, out)
    return True


def fail_build(log_path, out):
    with open(log_path) as log:
        tail = log.readlines()[-30:]
    sys.stderr.write("e2ebench: build failed; last lines of %s:\n" % log_path)
    sys.stderr.write("".join(tail))
    # A failed configure must not be mistaken for a configured tree later.
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        os.remove(cache)
    return False


def run_workload(args, workload):
    command = [os.path.join(build_dir(), "arsp_e2ebench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-file", os.path.join(
            build_dir(), "trace-%s-%d.json" % (workload, args.seed))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: %s overran %d s\n" % (workload,
                                                          RUN_TIMEOUT_S))
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.self_test:
        if not build(["e2ebench_test"]):
            return 2
        return subprocess.call([os.path.join(build_dir(), "e2ebench_test")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["arsp_e2ebench"]):
        return 2
    if args.workload != "all":
        return run_workload(args, args.workload)
    codes = [run_workload(args, w) for w in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
