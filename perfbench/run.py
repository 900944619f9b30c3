#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

The build (CMake, Release) lives in .bench_build/perfbench under the
repository root and is reused by later runs. Build output goes to stderr;
the benchmark's own last stdout line is its JSON result. See
perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
BUILD = os.path.join(ROOT, BUILD_REL)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def configured_for_here():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "grophecy.h")):
        fail("framework sources not found under %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not configured_for_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        step = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    binary = os.path.join(BUILD, "perfbench")
    # Relative work dir: the daemon's AF_UNIX socket path must stay short.
    command = [binary] + sys.argv[1:] + ["--work-dir", BUILD_REL]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
