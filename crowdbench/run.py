#!/usr/bin/env python3
"""Build and run the checkin-path benchmark.

Usage, from the root of a checkout:

    python3 crowdbench/run.py --workload paper_ingest --seed 1 --seconds 10 --trace 0

Builds crowdbench/ (which compiles ../src) into $CARGO_TARGET_DIR/crowdbench
(default .bench_build/crowdbench), then runs one workload. The last line of
standard output is the result JSON; build output goes to standard error.
See crowdbench/README.md for workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_ingest", "replicated_compact", "fleet_cycle")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build the benchmark target (incremental)."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "crowdbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("crowdbench: ../src not found; run from a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "crowdbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"crowdbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "crowdbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "crowdbench-work")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"crowdbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
