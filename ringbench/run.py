#!/usr/bin/env python3
"""Builds the ring benchmark from source and runs one workload.

    python3 ringbench/run.py --workload tpch_serial --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/ringbench (default .bench_build/ringbench)
under the repository root; build output goes to stderr. The benchmark's own
stdout is passed through, so its last line is the JSON result. A traced run
writes its spans to <build>/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_serial", "tpch_concurrent", "read_write")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (src/CMakeLists.txt missing)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "ringbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "ringbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "ringbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace_out=" + os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)))
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(rc)


if __name__ == "__main__":
    main()
