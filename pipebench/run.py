#!/usr/bin/env python3
"""Build and run the LiteRace pipeline benchmark.

Run from the root of a checkout:

    python3 pipebench/run.py --workload executor-sampled --seed 1 \
        --seconds 10 --trace 0
    python3 pipebench/run.py --selftest

The first call configures and builds the benchmark (the library comes from
the checkout's own sources) into $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when that variable is unset; later calls rebuild
only what changed. The benchmark program prints a readable summary and, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics. This script passes that output through, checks that the last line
has that shape, and exits with the program's status. It exits non-zero
without printing a result when the build fails or the program does not
finish within its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
TARGETS = ["pipebench", "pipebench_selftest"]


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target"] +
                 TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def check_result_line(stdout):
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return False
    return (isinstance(result, dict) and
            sorted(result) == ["attempted", "correct", "failed", "metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target_dir, "pipebench")
    build(build_dir)
    work_dir = os.path.join(target_dir, "pipebench-work")

    if args.selftest:
        command = [os.path.join(build_dir, "pipebench_selftest"),
                   "--workdir", work_dir]
    else:
        command = [os.path.join(build_dir, "pipebench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", args.trace,
                   "--workdir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if not args.selftest and not check_result_line(proc.stdout):
        fail("the last line of output is not a result object")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
