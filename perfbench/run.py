#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build lives in .bench_build/perfbench
(configured once, rebuilt incrementally); build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero without a result when the sources or the build are missing.
"""
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def call(cmd):
    proc = subprocess.run([str(c) for c in cmd], stdout=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"perfbench: '{' '.join(map(str, cmd))}' failed ({proc.returncode})")


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources next to perfbench/ to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            call([cmake, "-S", HERE, "-B", BUILD, *generator,
                  "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        call([cmake, "--build", BUILD, "--target", "perfbench", "-j", jobs])


def main():
    build()
    binary = BUILD / "perfbench"
    args = [str(binary), *sys.argv[1:], "--out-dir", str(BUILD / "results")]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
