#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve|shard|cluster \
      --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-one]

The first call configures and builds the library and the perfbench binary
with CMake (Release) under $CARGO_TARGET_DIR, or .bench_build when it is
unset, inside the repository; later calls rebuild incrementally. Build output goes to
stderr, so the binary's last stdout line is its JSON result. The exit code
is the binary's: 0 when every correctness gate passed, nonzero otherwise
(including a failed build).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus a bounded set-up and cold pass; a
# binary still running after this is treated as hung.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    try:
        done = subprocess.run([binary] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
