#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory).

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake project that compiles the
library from src/) into .bench_build/perfbench, then runs the benchmark
binary with the given arguments from the repository root. Build output goes
to stderr; the last line on stdout is the benchmark's JSON result. The exit status is the binary's,
or non-zero without a result when the build is impossible or fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    command = [os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    status = subprocess.run(command, cwd=ROOT).returncode
    return status if status >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
