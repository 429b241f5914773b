#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Builds and runs the helper unit test (percentile rule, span self time,
   key bijection).
2. Runs every workload at a tiny size (--scale 0.01 --seconds 1), traced
   and untraced, and requires a correct result with every listed metric.
3. Runs one seed twice and requires identical exact counts, and a second
   seed that passes every output check.
4. Runs run.py in a directory holding only the benchmark and requires a
   non-zero exit without a result line.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--scale", "0.01"]
# Exact counts: fixed by the seed, independent of timing.
EXACT = ("bytes_per_key", "preload_keys", "final_keys", "store_bytes",
         "lookup_hits", "preload_edges", "final_edges", "bfs_reached",
         "components")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + TINY
    r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=300)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    config = {}
    metrics = {}
    for line in lines:
        if line.startswith("config:"):
            config = dict(kv.split("=", 1) for kv in line.split()[1:])
        elif line.startswith("metric "):
            _, name, _, value, _ = line.split(maxsplit=4)
            metrics[name] = value
    config.update(metrics)
    return r.returncode, result, config, r.stderr


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    r = subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"], capture_output=True)
    r = r.returncode == 0 and subprocess.run(
        ["cmake", "--build", build, "-j4"], capture_output=True).returncode == 0
    expect(r, "build")
    t = subprocess.run([os.path.join(build, "perfbench_helpers_test")],
                       capture_output=True, text=True)
    expect(t.returncode == 0, "helpers_test " + (t.stderr.strip() or "passed"))

    for wl in (w["name"] for w in bench["workloads"]):
        for trace, names in ((0, e2e), (1, per_layer)):
            rc, res, _, err = run(wl, 1, trace)
            ok = rc == 0 and res is not None and res["correct"] and res["failed"] == 0
            expect(ok, f"{wl} trace={trace} smoke run correct")
            if not ok:
                print(err[-2000:], file=sys.stderr)
                continue
            expect(set(res["metrics"]) == names,
                   f"{wl} trace={trace} prints exactly the listed metrics")
        _, _, a, _ = run(wl, 7, 0)
        _, _, b, _ = run(wl, 7, 0)
        same = {k: (a.get(k), b.get(k)) for k in EXACT if k in a}
        expect(all(x == y for x, y in same.values()) and same,
               f"{wl} same seed gives identical exact counts {same}")
        rc, res, _, _ = run(wl, 8, 0)
        expect(rc == 0 and res and res["correct"], f"{wl} second seed passes")

    with tempfile.TemporaryDirectory(dir=build) as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"))
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "batch_set", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=tmp, env=env,
                           capture_output=True, text=True, timeout=180)
        expect(r.returncode != 0 and "{" not in r.stdout,
               "benchmark alone (no library sources) exits non-zero, no result")

    print("selftest:", "all passed" if not failures else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
