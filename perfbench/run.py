#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv_zipf_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (which compiles the simulator from ../src)
with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench at the
root of the checkout, then runs the tccbench binary. Build output goes to
stderr; stdout is tccbench's report, whose last line is the JSON result.
Exits non-zero when the build fails, a check fails, or no valid result line
was printed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fabric_msg", "kv_zipf_read", "store_rmw_torus", "kv_rebalance"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    generated = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *gen,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    return b.returncode == 0


def valid_result(line):
    try:
        d = json.loads(line)
    except ValueError:
        return False
    return (isinstance(d, dict) and set(d) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(d["metrics"], dict) and d["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="percentile-refusal and bit-for-bit determinism checks")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "tccbench")]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--out", os.path.join(build_root, "perfbench-out")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if args.selftest:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        print("perfbench: no valid result line", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
