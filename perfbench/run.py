#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver (perfbench/*.cc) is configured and built with CMake into
.bench_build/ under the repository root; a build that is up to date costs
about a second. Build output is shown, on standard error, only when the
build fails, so the last line of standard output is the driver's result. Span logs of traced
runs are written to .bench_build/ too. README.md describes the workloads and
metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tsq_perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Longest a single run may take once built.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs cmd with its output captured; echoes it to stderr on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
        fail("failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the driver against the sources in src/."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", BUILD, "--target", "tsq_perfbench",
               "-j", jobs], 880)


def main(argv):
    build()
    cmd = [BINARY] + argv + ["--scratch", os.path.dirname(BUILD)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("driver exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("driver printed no result object")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
