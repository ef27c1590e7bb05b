#!/usr/bin/env python3
"""Runs two sets of benchmark runs and compares them metric by metric.

    python3 perfbench/compare.py --base <checkout> [--change <checkout>] \\
        [--workload flat_exact --workload ivf_open ...] [--seed0 1000]

Each checkout is a repository root holding perfbench/run.py.  Without
--change both sets run the base checkout (two sets of the same code).  Without
--workload every workload of BENCHMARK.json runs.  Each workload runs ten
pairs: pair i runs both sides with seed seed0 + i, alternating which side
goes first, for BENCHMARK.json's run_seconds.  Bounds, directions and the run
length come from the base checkout's BENCHMARK.json.

Per workload and end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4) and these verdicts:
  agree       the medians differ by at most the metric's bound;
  gain        the change wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ, in the better direction, by more than
              the base set's quartile spread;
  regression  the change's median is worse than the base's by more than the
              bound; "unresolved" instead when the base set's own spread
              (IQR / median) exceeds the bound, unless every change run reads
              better than every base run; "ok" otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"compare: {' '.join(cmd)} in {checkout} failed "
                 f"({proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def verdicts(spec, base, change):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    better = [c < b if lower else c > b for b, c in zip(base, change)]
    wins = sum(better)
    gain = wins >= 9 and -worse * bm > b3 - b1
    all_better = all((c < b if lower else c > b) for c in change for b in base)
    spread = (b3 - b1) / bm
    if worse > bound:
        regression = "regression"
    elif spread > bound and not all_better:
        regression = "unresolved"
    else:
        regression = "ok"
    return {"agree": abs(cm - bm) / bm <= bound, "gain": gain, "wins": wins,
            "regression": regression, "base_spread": spread}


def report(results, bench):
    specs = {m["name"]: m for m in bench["end_to_end"]}
    status = 0
    for workload, sides in results.items():
        base, change = sides["base"], sides["change"]
        n = len(base)
        print(f"== {workload}: {n} pairs; correct base={all(r['correct'] for r in base)} "
              f"change={all(r['correct'] for r in change)}; failed base="
              f"{sum(r['failed'] for r in base)} change={sum(r['failed'] for r in change)}")
        print(f"{'metric':24s} {'base median [q1, q3]':>36s} {'change median [q1, q3]':>36s}"
              f"  bound  agree  gain(wins)  no-regression")
        for name, spec in specs.items():
            bv = [r["metrics"][name]["value"] for r in base]
            cv = [r["metrics"][name]["value"] for r in change]
            v = verdicts(spec, bv, cv)
            bq, cq = quartiles(bv), quartiles(cv)
            print(f"{name:24s} {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{'':>4s}{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  {spec['bound']:.2f}  {'yes' if v['agree'] else 'NO':5s}"
                  f"  {'yes' if v['gain'] else 'no':3s}({v['wins']}/{n})"
                  f"  {v['regression']} (base spread {v['base_spread']:.3f})")
            if not v["agree"] or v["regression"] != "ok":
                status = 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default=".")
    ap.add_argument("--change")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    base = os.path.abspath(args.base)
    change = os.path.abspath(args.change or args.base)
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    for workload in workloads:
        sides = {"base": [], "change": []}
        for i in range(PAIRS):
            seed = args.seed0 + i
            order = [("base", base), ("change", change)]
            for side, checkout in (order if i % 2 == 0 else order[::-1]):
                sides[side].append(run_once(checkout, workload, seed,
                                            bench["run_seconds"]))
            print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
        results[workload] = sides
    sys.exit(report(results, bench))


if __name__ == "__main__":
    main()
