#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs every workload on several
seeds and reports, per end-to-end metric, the median and the spread
(interquartile range as a share of the median, quartiles as Python's
statistics.quantiles gives them) against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads burst_fleet
    python3 perfbench/steady.py --compare a.json b.json

Run it from the repository root. Each run's result line is saved, so two
saved sets can be compared afterwards with --compare (the second set's
median may not be worse than the first's by more than the bound).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, wall, result, proc.stdout


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, (q3 - q1) / abs(mid) if mid else float("inf")


def report(bench, results):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = (0.0, "")
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
            if len(values) < 2:
                print(f"  {name:<28} too few values")
                continue
            mid, rel = spread(values)
            bound = meta["bound"]
            verdict = "steady" if rel < bound / 3 else ("within" if rel <= bound else "TOO WIDE")
            if rel / bound > worst[0]:
                worst = (rel / bound, f"{workload} {name}")
            print(f"  {name:<28} median {mid:>14.4f} {meta['unit']:<5} spread {rel * 100:6.2f}%  "
                  f"bound {bound * 100:4.0f}%  {verdict}")
    print(f"\nworst spread / bound, setup_s included: {worst[0]:.2f} ({worst[1]})")


def compare(bench, first, second):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in first:
        for name, meta in bounds.items():
            a = [r["metrics"][name]["value"] for r in first[workload]]
            b = [r["metrics"][name]["value"] for r in second.get(workload, [])]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if meta["better"] == "higher" else (ma - mb) / ma
            worse = -change
            flag = "WORSE" if worse > meta["bound"] else "ok"
            ok &= flag == "ok"
            print(f"{workload:<15} {name:<28} {ma:>14.4f} -> {mb:>14.4f}  worse by {worse * 100:6.2f}%  {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(bench, *sets) else 1)

    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    results = {}
    failures = 0
    for name in names:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            code, wall, result, stdout = run_once(bench, name, seed, bench["run_seconds"], 0)
            if code != 0 or not result or not result.get("correct"):
                failures += 1
                print(f"{name} seed {seed}: FAILED, exit {code}\n{stdout[-2000:]}", flush=True)
                continue
            runs.append(result)
            print(f"{name} seed {seed}: {wall:.1f} s, {result['attempted']} ops, {result['failed']} failed",
                  flush=True)
        results[name] = runs
    report(bench, results)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    if failures:
        print(f"\n{failures} run(s) failed")
        sys.exit(1)


if __name__ == "__main__":
    main()
