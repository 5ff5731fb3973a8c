#!/usr/bin/env python3
"""Steadiness check: run workloads many times in fresh processes.

    python3 perfbench/steady.py --runs 10 --first-seed 101 --out set-a.json
    python3 perfbench/steady.py --runs 10 --first-seed 201 --compare set-a.json

Run from the repository root. Each run is `perfbench/run.py` with its own
seed and the run length from BENCHMARK.json. For every end-to-end metric
the script prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to
the metric's bound; `ok` means the spread is below a third of the bound
(setup_s is exempt from the spread rule). With --compare it also prints
how far each median moved from an earlier set, in the metric's worse
direction, against the same bound. The failed share of operations is
listed per workload, since it must be identical between sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", help="save the raw per-run results here")
    ap.add_argument("--compare", help="an earlier --out file to compare medians against")
    args = ap.parse_args()

    root = os.getcwd()
    bench = load_benchmark(root)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    raw = {}
    for w in names:
        raw[w] = [run_once(root, w, args.first_seed + i, bench["run_seconds"]) for i in range(args.runs)]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)

    header = "%-14s %-16s %12s %12s %12s %8s %6s %4s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "ok")
    if before:
        header += " %8s %4s" % ("drift", "ok")
    print(header)
    all_ok = True
    for w in names:
        runs = raw[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%-14s failed share %s over %d runs, %d operations each" % (
            w, shares, len(runs), runs[0]["attempted"]))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = summarize(vals)
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            line = "%-14s %-16s %12.4f %12.4f %12.4f %7.2f%% %5.0f%% %4s" % (
                w, m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], "yes" if ok else "NO")
            all_ok &= ok
            if before and w in before:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in before[w])
                drift = (med - old) / old if m["better"] == "lower" else (old - med) / old
                dok = drift <= m["bound"]
                all_ok &= dok
                line += " %7.2f%% %4s" % (100 * drift, "yes" if dok else "NO")
            print(line)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
