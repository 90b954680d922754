#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 pipebench/run.py --workload census_pipeline --seed 1 \
        --seconds 20 --trace 0 [--scale smoke]

Run from the repository root. The build (CMake, RelWithDebInfo, the
repository's libraries compiled from ../src) lands in .bench_build/pipebench
and is reused by later runs; its output goes to stderr so that the last line
of stdout is the benchmark's JSON result. Work files (census checkpoints,
spill files, Chrome traces) go to .bench_build/work. Exits non-zero, without
a result, when the sources are missing or the build or a check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pipebench: no library sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "pipebench", "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("pipebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "pipebench")
    return subprocess.run([binary] + sys.argv[1:] + ["--work-dir", WORK]).returncode


if __name__ == "__main__":
    sys.exit(main())
