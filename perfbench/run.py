#!/usr/bin/env python3
"""Build and run the mfgpu performance ledger.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the solver from src/) into the directory
named by CARGO_TARGET_DIR, or .bench_build, then runs one workload. The
program's last stdout line is the JSON result; see perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure and build; returns False with the log on stderr.

    The configure step runs every time: it is cheap on a configured tree, and
    CMake refuses a build directory configured from another source tree, so a
    shared build directory never measures another checkout's sources.
    """
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-G", "Unix Makefiles",
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode
    cmd = [os.path.join(build_dir, "perfbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
