#!/usr/bin/env python3
"""Run two interleaved sets of every workload and compare them.

Usage (from the repository root):

    python3 perfbench/sets.py [--runs 10] [--seconds 10] [--trace 0]
                              [--workloads mix_p1,mix_p2,wire_p1]

Set A uses seeds 1..runs and set B seeds 101..100+runs. Runs alternate
A, B / B, A per round, so a slow spell on the host lands on both sets.
For every workload and metric it prints each set's median and quartiles,
the spread (q3 - q1) / median, and how much worse set B's median is than
set A's, both as shares to hold against the metric's bound in
BENCHMARK.json. Raw results go to perfbench/results/sets-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workloads", default=None)
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    kind = "per_layer" if opts.trace else "end_to_end"
    spec = {m["name"]: m for m in bench[kind]}

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(opts.runs):
        for w in workloads:
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = (1 if s == "A" else 101) + i
                res = run_once(bench["command"], w, seed, seconds, opts.trace)
                results[w][s].append(res)
                print(f"round {i} {w} set {s} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)

    os.makedirs(os.path.join(ROOT, "perfbench", "results"), exist_ok=True)
    path = os.path.join(ROOT, "perfbench", "results", f"sets-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)

    print(f"cores: {os.cpu_count()}, runs per set: {opts.runs}, seconds: {seconds}, raw: {path}")
    print("| workload | metric | A median | A q1..q3 | A spread | B median | B spread | B worse by | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, m in spec.items():
            sets = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(vals)
                sets[s] = (q1, med, q3, (q3 - q1) / med if med else 0.0)
            a, b = sets["A"], sets["B"]
            if a[1] == 0:
                worse = 0.0
            elif m["better"] == "lower":
                worse = (b[1] - a[1]) / a[1]
            else:
                worse = (a[1] - b[1]) / a[1]
            bound = m.get("bound", "")
            print(f"| {w} | {name} | {a[1]:.6g} | {a[0]:.6g}..{a[2]:.6g} | {a[3]:.3f} | "
                  f"{b[1]:.6g} | {b[3]:.3f} | {worse:+.3f} | {bound} |")
        for s in ("A", "B"):
            att = sum(r["attempted"] for r in results[w][s])
            fail = sum(r["failed"] for r in results[w][s])
            ok = all(r["correct"] for r in results[w][s])
            print(f"| {w} | windows set {s} | attempted {att} | failed {fail} | correct {ok} | | | | |")


if __name__ == "__main__":
    main()
