#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed snapshot.

Records are matched on their identifying fields (every string-valued field
plus integer dimensions like batch= / shards= / len=). Every *_per_s
throughput field is compared as new/old and, on space-only rows,
bytes_per_key as old/new, so a ratio >= 1.0 always means "no worse than the
snapshot". Exits 1 when any matched value falls below --tolerance — CI runs
this with continue-on-error so the comparison is informative, not blocking
(snapshots come from different hardware than the runners).

With --github-summary, a markdown table of the comparison is appended to the
file named by $GITHUB_STEP_SUMMARY (or printed, when the variable is unset),
so the result is readable from the workflow run page without digging through
logs.

Usage:
    scripts/compare_bench.py BENCH_batch_insert.json fresh.json
    scripts/compare_bench.py old.json new.json --tolerance 0.8 --github-summary
"""

import argparse
import json
import os
import sys

# Dimension keys that identify a record (when present) in addition to all
# string-valued fields. "len" separates the range-query rows, which differ
# only in their expected range length; "batch" likewise separates the batched
# point-query rows from each other.
ID_INT_KEYS = {"batch", "shards", "cores", "len"}


def record_id(record):
    parts = []
    for key in sorted(record):
        value = record[key]
        if isinstance(value, str) or key in ID_INT_KEYS:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def throughput_fields(record):
    return {
        k: v
        for k, v in record.items()
        if k.endswith("_per_s") and isinstance(v, (int, float)) and v > 0
    }


def space_fields(record):
    """Space rows (bench_table6_space): bytes_per_key, lower is better.

    Only consulted when a record carries no throughput field, so
    decode-bench rows (which report bytes_per_key as a descriptive field
    next to keys_per_s) keep comparing on throughput alone."""
    if throughput_fields(record):
        return {}
    return {
        k: v
        for k, v in record.items()
        if k == "bytes_per_key" and isinstance(v, (int, float)) and v > 0
    }


def compare(old, new, tolerance):
    """Yields (tag, record_id, field, new_value, old_value, ratio) rows;
    ratio/old_value are None for records absent from the snapshot. Ratios
    are oriented so >= 1.0 always means "no worse than the snapshot":
    new/old for throughput, old/new for space."""
    old_by_id = {record_id(r): r for r in old.get("results", [])}
    for record in new.get("results", []):
        rid = record_id(record)
        base = old_by_id.get(rid)
        if base is None:
            yield ("NEW", rid, None, None, None, None)
            continue
        for field, value in throughput_fields(record).items():
            base_value = base.get(field)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            ratio = value / base_value
            tag = "OK" if ratio >= tolerance else "REGR"
            yield (tag, rid, field, value, base_value, ratio)
        for field, value in space_fields(record).items():
            base_value = base.get(field)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            ratio = base_value / value
            tag = "OK" if ratio >= tolerance else "REGR"
            yield (tag, rid, field, value, base_value, ratio)


def write_summary(path, bench_name, rows, tolerance, regressions, compared):
    lines = [
        f"### compare_bench: `{bench_name}` (tolerance {tolerance:.2f}x)",
        "",
        "| status | record | field | new | snapshot | ratio |",
        "|---|---|---|---|---|---|",
    ]
    for tag, rid, field, value, base_value, ratio in rows:
        if field is None:
            lines.append(f"| NEW | `{rid}` | — | — | — | — |")
            continue
        mark = "⚠️ REGR" if tag == "REGR" else "OK"
        lines.append(
            f"| {mark} | `{rid}` | {field} | {value:.3e} | {base_value:.3e} "
            f"| {ratio:.2f}x |"
        )
    lines.append("")
    lines.append(
        f"compared {compared} throughput values, {regressions} below "
        f"{tolerance:.2f}x"
    )
    lines.append("")
    text = "\n".join(lines)
    if path:
        with open(path, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="committed snapshot JSON")
    parser.add_argument("new", help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.8,
                        help="minimum acceptable new/old ratio (default 0.8)")
    parser.add_argument("--github-summary", action="store_true",
                        help="append a markdown table to $GITHUB_STEP_SUMMARY")
    args = parser.parse_args()

    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)

    rows = list(compare(old, new, args.tolerance))
    regressions = 0
    compared = 0
    for tag, rid, field, value, base_value, ratio in rows:
        if field is None:
            print(f"NEW       {rid} (no snapshot record)")
            continue
        compared += 1
        if tag == "REGR":
            regressions += 1
        print(f"{tag:<5} {rid} {field}: {value:.3e} vs {base_value:.3e} "
              f"({ratio:.2f}x)")
    print(f"compared {compared} throughput values, {regressions} below "
          f"{args.tolerance:.2f}x")

    if args.github_summary:
        write_summary(os.environ.get("GITHUB_STEP_SUMMARY"),
                      new.get("bench") or args.new, rows, args.tolerance,
                      regressions, compared)
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
