#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload.

usage: python3 perfbench/run.py --workload online|collect \\
           --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --selftest

Run from the root of a checkout. The driver (perfbench/src) is compiled
with CMake against the repository's own src/ libraries, into
$CARGO_TARGET_DIR (relative paths resolve against the checkout root;
default .bench_build), and rebuilt only when a source changed. Build
output goes to stderr, so the driver's result stays the last line of
stdout. PPP_* environment variables are removed for the run: the
benchmark fixes every knob (job counts, caches, tracing) itself.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("PPP_")}
    return subprocess.run([binary] + sys.argv[1:], env=env,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
