#!/usr/bin/env python3
"""Build and run the LMS end-to-end benchmark from the root of a checkout.

    python3 lmsbench/run.py --workload ingest|dashboard --seed N --seconds S --trace 0|1

The stack's libraries (../src) and the benchmark are built in Release mode
under $CARGO_TARGET_DIR/lmsbench (default .bench_build/lmsbench); build
output goes to stderr. The last line on stdout is the benchmark's result.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("lmsbench: the stack's sources (src/) are missing", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "lms_bench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "lmsbench"))
    if not build(build_dir):
        return 2
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    # A run that was killed leaves its warm-store file behind.
    for stale in glob.glob(os.path.join(work_dir, "warm-*.lms")):
        os.remove(stale)
    cmd = [os.path.join(build_dir, "lms_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("lmsbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
