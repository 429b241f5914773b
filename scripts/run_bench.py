#!/usr/bin/env python3
"""Run benchmark binaries and persist their RESULT lines as JSON.

Benchmarks print machine-parsable lines of the form

    RESULT bench=leaf_decode dist=dense mode=block keys_per_s=1.234e+09 ...

This harness runs each binary, parses every RESULT line into a record
(numbers are converted when they parse), and writes BENCH_<name>.json next
to the repo root — the perf-trajectory artifacts successive PRs compare
against. <name> is the records' own `bench=` field when present (so
bench_fig1_batch_insert emits BENCH_batch_insert.json), else the binary
name without its bench_ prefix.

Usage:
    scripts/run_bench.py                          # bench_leaf_decode, ./build
    scripts/run_bench.py --bench bench_leaf_decode bench_fig1_batch_insert
    scripts/run_bench.py --bench bench_fig1_batch_insert --out BENCH_x.json
    scripts/run_bench.py --bench bench_fig1_batch_insert --repeat 3
Extra CPMA_BENCH_* environment knobs pass straight through to the binaries
(CPMA_BENCH_STRUCTS=pma,cpma keeps the batch-insert bench to the engines).

--repeat N runs each binary N times and keeps, per RESULT key (the record's
identifying fields), the record from the run with the highest primary
throughput — best-of-N smooths the run-to-run noise that successive-PR
snapshot comparisons otherwise have to eyeball around.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys


def parse_result_line(line):
    record = {}
    for token in line.split()[1:]:  # skip the RESULT tag
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        record[key] = value
    return record


# Record identity comes from compare_bench so best-of-N grouping and the
# snapshot comparison can never disagree about what "the same record" is.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare_bench import record_id  # noqa: E402


def primary_throughput(record):
    """Best-of-N selection metric: higher is better.

    Throughput records use their largest *_per_s field; space-only records
    rank by negated bytes_per_key.
    """
    tp = max(
        (
            v
            for k, v in record.items()
            if k.endswith("_per_s") and isinstance(v, (int, float))
        ),
        default=0.0,
    )
    if tp > 0.0:
        return tp
    # Space-only rows (bench_table6_space): smaller footprint wins.
    bpk = record.get("bytes_per_key")
    if isinstance(bpk, (int, float)) and bpk > 0:
        return -bpk
    return 0.0


def merge_best(runs):
    """Best-of-N: per record id, keep the whole record from the fastest run
    (whole record, so phase breakdowns stay consistent with the throughput
    they accompanied). Order follows first appearance."""
    best = {}
    order = []
    for records in runs:
        for record in records:
            rid = record_id(record)
            if rid not in best:
                order.append(rid)
                best[rid] = record
            elif primary_throughput(record) > primary_throughput(best[rid]):
                best[rid] = record
    return [best[rid] for rid in order]


def git_revision():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"], text=True
        ).strip()
    except (subprocess.CalledProcessError, OSError):
        return None


def run_one(bench, build_dir, out, repeat):
    binary = os.path.join(build_dir, "bench", bench)
    if not os.path.exists(binary):
        sys.exit(
            f"error: {binary} not found — build first: "
            f"cmake -B {build_dir} -S . && "
            f"cmake --build {build_dir} -j"
        )

    runs = []
    for rep in range(repeat):
        if repeat > 1:
            print(f"# {bench}: run {rep + 1}/{repeat}")
        proc = subprocess.run([binary], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: {binary} exited with {proc.returncode}")
        records = [
            parse_result_line(line)
            for line in proc.stdout.splitlines()
            if line.startswith("RESULT ")
        ]
        if not records:
            sys.exit(f"error: no RESULT lines in {bench} output")
        runs.append(records)
    results = merge_best(runs)

    name = results[0].get("bench") or bench.removeprefix("bench_")
    out_path = out or f"BENCH_{name}.json"
    payload = {
        "bench": name,
        "binary": bench,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "host": platform.node(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "env": {
            k: v for k, v in os.environ.items() if k.startswith("CPMA_BENCH_")
        },
        "repeat": repeat,
        "results": results,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path} ({len(results)} records)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", nargs="+", default=["bench_leaf_decode"],
                        help="benchmark binary names (under <build-dir>/bench)")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default=None,
                        help="output JSON path (single --bench only; default "
                             "BENCH_<name>.json)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each binary N times and keep the best "
                             "record per RESULT key (default 1)")
    args = parser.parse_args()

    if args.out and len(args.bench) > 1:
        sys.exit("error: --out requires a single --bench")
    if args.repeat < 1:
        sys.exit("error: --repeat must be >= 1")
    for bench in args.bench:
        run_one(bench, args.build_dir, args.out, args.repeat)


if __name__ == "__main__":
    main()
