#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite_tpc --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The script builds perfbench/ (which
compiles the simulator from ../src) into .bench_build/perfbench,
measures set-up time with separate probe processes, runs the dolbench
binary and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics. See README.md.

Exit codes: 0 clean, 1 an output check failed (the result line says
correct: false), 2 the build or the run broke (no result line).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_DIR, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dolbench")

# Set-up is timed in this many separate processes; the median is
# reported, so one slow process start does not move it.
SETUP_PROBES = 31
# A run must end within 180 s; leave room for the set-up probes.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree for the next run to trust.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def probe_setup(workload, seed):
    """Seconds from process start to the first simulated instruction."""
    start_ns = time.monotonic_ns()
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--probe-setup"],
        stdout=subprocess.PIPE, text=True, timeout=60)
    for line in proc.stdout.splitlines():
        if line.startswith("first_instruction_ns "):
            return (int(line.split()[1]) - start_ns) / 1e9
    fail("set-up probe exited %d without reaching an instruction"
         % proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("seed must be >= 0 and seconds >= 1")

    build()

    setup = []
    if args.trace == 0:
        setup = [probe_setup(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]

    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("dolbench exited %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("dolbench printed no result")

    if setup:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s"}
        print("setup_probes_s " + json.dumps(setup))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
