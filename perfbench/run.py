#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload explore|sessions|boot \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The binary is built from source into .bench_build/ (Release, one build
tree). sessions and boot first run an untimed preparation step that writes
the αDB snapshot and the reference answers. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "data")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # preparation and run together, after the build


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no squid sources at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def binary(name):
    return os.path.join(BUILD_DIR, name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["explore", "sessions", "boot"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.selftest:
        sys.exit(subprocess.run([binary("perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)

    os.makedirs(DATA_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", DATA_DIR]
    if args.workload in ("sessions", "boot"):
        prep = subprocess.run([binary("squid_perfbench"), "prepare"] + common,
                              stdout=sys.stderr,
                              timeout=deadline - time.monotonic())
        if prep.returncode != 0:
            fail("preparation failed")
    run = subprocess.run(
        [binary("squid_perfbench"), "run"] + common +
        ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True,
        timeout=max(1, deadline - time.monotonic()))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
