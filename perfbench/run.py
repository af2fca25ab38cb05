#!/usr/bin/env python3
"""Build the Casper benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The driver (perfbench/casper_perfbench)
is compiled with CMake into .bench_build/perfbench, together with the
library under src/; later runs rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Everything the build and the run write stays under .bench_build/.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".bench_build"
BUILD_DIR = WORK_DIR / "perfbench"
OUT_DIR = WORK_DIR / "perfbench-out"
BINARY = BUILD_DIR / "casper_perfbench"

# One run measures for --seconds; its set-ups, input generation and
# answer checks take well under this much on top. Beyond it, it hangs.
RUN_OVERHEAD_S = 140


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(env):
        return 1

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               # Relative, so the socket path stays short.
               "--out-dir", os.path.relpath(OUT_DIR, ROOT)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=args.seconds + RUN_OVERHEAD_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
