#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload cad-knn --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (which compiles the library from src/) into
.bench_build/; later runs only check that build is up to date. Every
argument is passed on to the `iqperf` binary, whose last line of output
is the JSON result. The exit code is the binary's, or 2 when the build
fails.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "iqperf")


def build():
    """Configures once, then builds incrementally. Output goes to stderr so
    stdout carries only the benchmark's result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found", file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "iqperf",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                print("run.py: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
