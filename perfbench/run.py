#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build at the
repository root) with its output on stderr; the benchmark then runs
from the repository root with the arguments given here, so the last
line of stdout is its result. A failed build exits non-zero and
prints no result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(target, "release", "jrt-perfbench")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
