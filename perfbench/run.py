#!/usr/bin/env python3
"""Build and run the roadworks host-speed benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload vp_bare --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/ (which compiles the
repository's src/ libraries) in Release mode under .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
benchmark's last stdout line stays its JSON result. All other arguments
are passed to the benchmark binary; see perfbench/README.md.
"""
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure (once) and build the benchmark; return True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: %s holds no src/ tree; run from a full checkout"
              % ROOT, file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    sys.stdout.flush()
    # setup_s is timed from here: the benchmark's process start.
    cmd = [BINARY,
           "--reference", os.path.join(BENCH_DIR, "reference.json"),
           "--spans", os.path.join(BUILD_DIR, "spans.jsonl"),
           "--started-ns", str(time.monotonic_ns())] + argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
