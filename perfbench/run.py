#!/usr/bin/env python3
"""Builds the CPMA benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_set --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (both
relative to the current directory). The benchmark's own output is passed
through; its last line is the JSON result. Exit status is non-zero when the
library sources are missing, the build fails, an output check fails, or the
run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("batch_set", "serve_durable", "graph_stream")
HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "pma", "cpma.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "cpma_perfbench"],
        stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "cpma_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="data-size multiplier (smoke tests only)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    # The library reads tuning knobs from CPMA_* variables; the benchmark
    # pins its own configuration, so none are passed through.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPMA_")}
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
