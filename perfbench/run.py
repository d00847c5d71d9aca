#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds
perfbench/ together with the library in src/ into .bench_build/perfbench;
later runs rebuild only what changed.  Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.  Traced runs
write their spans to .bench_build/traces/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    # CMake writes the Makefile only when configuring succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--trace-dir", TRACES]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())
