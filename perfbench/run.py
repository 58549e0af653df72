#!/usr/bin/env python3
"""Builds and runs the DIG-FL benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hfl_train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. The first run configures and builds the
library and the benchmark from source into .bench_build/ (or
$CARGO_TARGET_DIR); later runs only check the build is current. The binary's
output is passed through. An untraced run starts the binary PROCESSES times
and prints one merged result as its last line; a traced run starts it once.
Every result is checked against the metric names BENCHMARK.json declares.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Processes an untraced run is split over, one after the other. On the host
# this was tuned on, a process runs either at full speed or about 1.5x
# slower for its whole life, at random; the same binary, seed and CPU flip
# from one process to the next. The best repetition over several processes
# is the figure that repeats from run to run.
PROCESSES = 4


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, configured)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def run_build_step(command):
    # Build chatter goes to stderr: stdout carries only benchmark output.
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("build step failed: %s" % error)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(command))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_result(line, trace, spec):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are wrong: %s" % sorted(result))
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        fail("metrics differ from those BENCHMARK.json declares")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    return result


def merge(results, spec):
    """One result from several processes' results: every timing is the best
    process's, setup_s the median of the processes' medians."""
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            value = statistics.median(values)
        elif metric["better"] == "higher":
            value = max(values)
        else:
            value = min(values)
        merged["metrics"][name] = {"value": value, "unit": metric["unit"]}
    return merged


def run_process(binary, args, seconds, index, deadline):
    work_dir = os.path.join(build_dir(), "work-%d-%d" % (os.getpid(), index))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--first-cpu", str(index), "--work-dir", work_dir]
    # A fixed address-space layout: with randomization, buffer placement
    # differs per process and moved some timings by 30% between runs.
    if shutil.which("setarch"):
        command = ["setarch", platform.machine(), "-R"] + command
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        parser.error("--workload is required")

    spec = load_spec()
    binary = build("perfbench")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        lines = run_process(binary, args, args.seconds, 0, deadline)
        parse_result(lines[-1], args.trace, spec)
        print("\n".join(lines))
        return
    results = []
    for index in range(PROCESSES):
        lines = run_process(binary, args, args.seconds / PROCESSES, index,
                            deadline)
        results.append(parse_result(lines[-1], args.trace, spec))
        print("\n".join(lines[:-1]))
    print(json.dumps(merge(results, spec)))


if __name__ == "__main__":
    main()
