#!/usr/bin/env python3
"""Build the benchmark binary from this checkout's sources and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary (perfbench/src, CMake project in
perfbench/) is configured and built in .bench_build/perfbench; build output
goes to stderr, so stdout carries only the binary's environment record and
its result line. Exits non-zero without a result when the build or the run
fails. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep-ak", "sweep-bk", "inhost-ak", "modelcheck")
# A run measures for at most 60 s plus set-up; anything beyond this is a hang.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def build(root):
    """Configures and builds the binary; returns its path or None."""
    build_dir = root / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return build_dir / "perfbench"


def main(argv):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
