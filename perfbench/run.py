#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload tpch_audited --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

The engine library (src/) and the benchmark (perfbench/src/) are built in
Release mode under .bench_build/perfbench; journals and span files go to
.bench_build/work. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, printing no result, if the
engine sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
TMP = ROOT / ".bench_build" / "tmp"


def configured_for_this_tree():
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve() == HERE
    return False


def build():
    if not configured_for_this_tree():
        shutil.rmtree(BUILD, ignore_errors=True)
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 1
    # Keep the compiler's and the benchmark's scratch files inside the tree.
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    if not build():
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "perfbench")] + sys.argv[1:] + ["--workdir", str(WORK)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
