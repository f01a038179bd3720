#!/usr/bin/env python3
"""Build and run the benchmark program (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the program (Release, tracing compiled out) under .bench_build/;
later calls only rebuild what changed. Build output goes to stderr; the
program's stdout is passed through, and its last line is the result JSON.
Everything the run writes stays under .bench_build/ in the checkout.

--check-determinism runs the workload twice with the given seed and fails
unless both runs print the same simulated work and output digest.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(env):
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", *generator, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, env=env)


def run_bench(args, env):
    """Runs the program once; returns (exit code, stdout lines)."""
    work_dir = BUILD_ROOT / f"run-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def determinism_line(lines):
    return next((l for l in lines if l.startswith("# determinism ")), None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hct-variable", "substr-longwindow",
                                 "fleet-open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()

    BUILD_ROOT.mkdir(exist_ok=True)
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    started = time.monotonic()
    try:
        build(env)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    code, lines = run_bench(args, env)
    for line in lines:
        print(line)
    if code != 0 or not args.check_determinism:
        return code

    again_code, again = run_bench(args, env)
    first, second = determinism_line(lines), determinism_line(again)
    if again_code != 0 or first is None or first != second:
        log(f"determinism check failed:\n  {first}\n  {second}")
        return 1
    log("determinism check passed: two runs printed " + first[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
