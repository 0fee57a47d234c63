#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

    python3 perfbench/run.py --workload random_miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The binary and the program's libraries are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs reuse that build. Build output goes to
stderr. The binary's standard output is passed through, so its last line is
the result JSON. Exits non-zero when the build fails, the binary fails or
finds a wrong output, or the run overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
RETRY_BUILD_JOBS = "2"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def configured_here(bdir):
    """True when bdir holds a CMake cache made for this source directory."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    src = line.split("=", 1)[1].strip()
                    return os.path.realpath(src) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build(bdir):
    """Configure when needed, then build incrementally. Returns the binary path.

    A build tree configured for another source directory (a moved or copied
    checkout) is removed first. A build that fails is retried once from an
    empty build tree with fewer jobs, so a stale tree or a compiler killed
    for memory does not fail the run."""
    for jobs in (BUILD_JOBS, RETRY_BUILD_JOBS):
        try:
            if not configured_here(bdir):
                shutil.rmtree(bdir, ignore_errors=True)
                subprocess.run(["cmake", "-S", HERE, "-B", bdir],
                               check=True, stdout=sys.stderr, stderr=sys.stderr)
            subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
            return os.path.join(bdir, "perfbench")
        except subprocess.CalledProcessError as e:
            if jobs == RETRY_BUILD_JOBS:
                raise
            print(f"run.py: build failed ({e}); retrying from an empty build tree",
                  file=sys.stderr)
            shutil.rmtree(bdir, ignore_errors=True)
    raise AssertionError("unreachable")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no program sources under src/ next to perfbench/", file=sys.stderr)
        return 1
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        out_dir = os.path.join(bdir, "traces")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
