#!/usr/bin/env python3
"""Paired same-host comparison of two checkouts with the end-to-end benchmark.

    python3 e2ebench/compare.py --a PARENT_DIR --b CHANGE_DIR [--pairs 10]
        [--workloads design,nas,analyze] [--seed 1] [--trace]

Each directory is a repository checkout holding BENCHMARK.json and
e2ebench/; each builds into its own <dir>/.bench_build. Leaving out --b
compares the --a checkout with itself, which measures the noise floor.

Runs are interleaved in pairs, ABAB with the order flipped on every other
pair (AB, BA, AB, ...); pair i runs both sides at seed --seed + i. For every
metric on every workload the script prints each side's median and
quartiles, the share of pairs each side wins, and a verdict:

  unresolved  a side's quartile spread (as a share of its median) exceeds
              the metric's bound and the sides overlap, so the runs cannot
              tell them apart; when every B run reads better (or every one
              worse) than every A run, the tests below still apply
  regressed   B's median is worse than A's by more than the bound
  improved    B wins at least 9 of 10 pairs, and the medians differ by more
              than A's own quartile spread or every B run beats every A run
  same        none of the above

With --trace the per-layer metrics of traced runs are compared too; they
have no bound and get no verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {workload} seed {seed} failed its checks")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, q3, (q3 - q1) / med if med else 0.0


def separated(a, b):
    """True when every value of one side lies beyond every value of the other."""
    return max(a) < min(b) or max(b) < min(a)


def verdict(meta, a, b, wins_b):
    if "bound" not in meta:
        return ""
    bound = meta["bound"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    apart = separated(a, b)
    if (spread(a)[2] > bound or spread(b)[2] > bound) and not apart:
        return "unresolved"
    worse = (med_b - med_a) if meta["better"] == "lower" else (med_a - med_b)
    if worse > bound * abs(med_a):
        return "regressed"
    q1, q3, _ = spread(a)
    if wins_b >= 0.9 and (apart or -worse > q3 - q1):
        return "improved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="baseline checkout")
    parser.add_argument("--b", help="changed checkout (default: --a again)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also compare per-layer metrics")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    root_a = os.path.abspath(args.a)
    root_b = os.path.abspath(args.b or args.a)
    with open(os.path.join(root_a, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]  # the same run length on both sides
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    modes = [False, True] if args.trace else [False]

    for workload in workloads:
        for trace in modes:
            sides = {"A": [], "B": []}
            for i in range(args.pairs):
                order = ("A", "B") if i % 2 == 0 else ("B", "A")
                for side in order:
                    root = root_a if side == "A" else root_b
                    sides[side].append(run_once(root, workload, args.seed + i, seconds, trace))
            failed = {s: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                      for s, runs in sides.items()}
            print(f"\n{workload} ({'traced' if trace else 'untraced'}, {args.pairs} pairs, "
                  f"{seconds:g} s runs; failed share A {failed['A']:.4g} B {failed['B']:.4g})")
            print(f"{'metric':36} {'A median [q1, q3]':34} {'B median [q1, q3]':34} "
                  f"{'B/A':>7} {'A wins':>6} {'B wins':>6}  verdict")
            for name in sides["A"][0]["metrics"]:
                a = [r["metrics"][name]["value"] for r in sides["A"]]
                b = [r["metrics"][name]["value"] for r in sides["B"]]
                lower = meta.get(name, {}).get("better", "lower") == "lower"
                wins_a = sum((x < y) if lower else (x > y) for x, y in zip(a, b)) / len(a)
                wins_b = sum((y < x) if lower else (y > x) for x, y in zip(a, b)) / len(a)
                qa, qb = spread(a), spread(b)
                med_a, med_b = statistics.median(a), statistics.median(b)
                ratio = med_b / med_a if med_a else float("nan")
                print(f"{name:36} {med_a:<12.6g}[{qa[0]:.5g}, {qa[1]:.5g}]".ljust(71)
                      + f" {med_b:<12.6g}[{qb[0]:.5g}, {qb[1]:.5g}]".ljust(35)
                      + f" {ratio:7.4f} {wins_a:6.2f} {wins_b:6.2f}  "
                      + verdict(meta.get(name, {}), a, b, wins_b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
