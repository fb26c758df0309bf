#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, compiled from the
library sources in ../src) into .bench_build/perfbench, then runs one
workload:

    python3 perfbench/run.py --workload yield_batch --seed 1 --seconds 21 --trace 0

The binary's output is passed through; its last line is the JSON result.
Build output goes to stderr so that line stays last on stdout. Without the
library sources next to this directory there is nothing to measure, and the
script exits with code 2 before printing any result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found at " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr.fileno(),
                                  stderr=sys.stderr.fileno(), check=False)
        except OSError as e:
            die("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=False,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def source_sha1():
    """SHA-1 over the measured sources (src/ and perfbench/), for runs from a
    checkout that is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    seed = expected["default_seed"] if args.seed is None else args.seed

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    digest = expected["digests"].get(args.workload)
    if seed == expected["default_seed"] and digest:
        cmd += ["--expect-digest", digest]

    print("context source_sha1=%s default_seed=%d held_out_seed=%d"
          % (source_sha1(), expected["default_seed"], expected["held_out_seed"]),
          flush=True)
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
