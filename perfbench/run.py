#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 20 --trace 0

Workloads: offline_batch, online_serve, fleet_chaos (see BENCHMARK.json).
The dlsys library (../src) and the benchmark binary are built with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative
to the checkout root); the first run builds, later runs only check the
build. Build output goes to stderr. The binary then replaces this
process, and its last stdout line is the result JSON. A missing or broken
source tree fails the build and exits non-zero without a result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_batch", "online_serve", "fleet_chaos")


def configured_source(build_dir):
    """The source directory build_dir was configured from, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    home = line.split("=", 1)[1].strip()
                    if os.path.exists(os.path.join(build_dir, "build.ninja")) or \
                            os.path.exists(os.path.join(build_dir, "Makefile")):
                        return os.path.realpath(home)
    except OSError:
        pass
    return None


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree, however many runs start at once.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if configured_source(build_dir) != HERE:
            # Unconfigured, half configured, or configured from another
            # checkout: configure afresh.
            for stale in ("CMakeCache.txt", "CMakeFiles"):
                path = os.path.join(build_dir, stale)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                elif os.path.exists(path):
                    os.remove(path)
            steps.append(
                ["cmake", "-S", HERE, "-B", build_dir,
                 *(["-G", "Ninja"] if shutil.which("ninja") else []),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            )
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    binary = os.path.join(build_dir, "dlsys_perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", repr(args.seconds),
                      "--trace", args.trace, "--workdir", workdir])


if __name__ == "__main__":
    main()
