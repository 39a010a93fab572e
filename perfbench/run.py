#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/main.exe from source
with dune (release profile, build directory .bench_build, dune cache off, so
nothing is written outside the checkout), then runs it with the same
arguments.  The program's last stdout line is the JSON result; see
perfbench/main.ml for the workloads and perfbench/manifest.json for their
parameters and the layer-to-metric map.

Exit codes: the program's own (0 ok, 1 an output check failed, 2 usage),
or 2 when the sources cannot be built, 3 when the run overruns its limit.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail(2, "run from the repository root: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        fail(2, "dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
           "--profile", "release", "-j", "2", TARGET]
    try:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(3, "build exceeded %d s" % BUILD_LIMIT_S)
    if done.returncode != 0:
        fail(2, "build failed (exit %d)" % done.returncode)
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    exe = build()
    sys.stdout.flush()
    try:
        done = subprocess.run([exe] + sys.argv[1:], timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(3, "run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
