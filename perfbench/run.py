#!/usr/bin/env python3
"""Build and run the persistsim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload (sweep|crash-check|explore) \
        --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune (build output goes to stderr),
then runs it. The last line of standard output is the JSON result.
Exits non-zero, without a result, when the checkout lacks the library
sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep", "crash-check", "explore")
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")

# glibc malloc keeps the memory it frees instead of handing large blocks
# back to the kernel. Otherwise every repetition faults the same pages
# in again (tens of thousands of faults per explore repetition), and on
# a shared virtual machine the cost of a page fault varies far more
# than the simulator's own work.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def git(*args):
    """Output of a git query about the working directory, or None."""
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def commit_env():
    """The commit and dirty flag, when the checkout is a git work tree
    (git is not asked otherwise, so it never looks above the checkout)."""
    if not os.path.exists(".git"):
        return {}
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    env = {}
    if head:
        env["PERFBENCH_COMMIT"] = head.strip()
    if status is not None:
        env["PERFBENCH_DIRTY"] = "1" if status.strip() else "0"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    for need in ("dune-project", "lib", os.path.join("perfbench", "bin", "dune")):
        if not os.path.exists(need):
            return fail(need + " not found: run from the root of a persistsim checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bin/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env={**os.environ, **commit_env(), **MALLOC_ENV})
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
