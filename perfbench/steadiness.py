#!/usr/bin/env python3
"""Steadiness check: run every workload in two interleaved sets on one build.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--workloads a,b]

Set A uses seeds 1..runs, set B seeds 101..100+runs; runs alternate A, B, A,
B... so machine drift lands on both sets alike. For every end-to-end metric
it prints each set's median and quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the gap between the two
medians against the metric's bound from BENCHMARK.json; the same figures
over both sets pooled ("all"); and the share of failed operations per set. Re-run it after a machine change and record the
figures in perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 101)):
                result = run_once(workload, base + i, args.seconds)
                if not result["correct"]:
                    raise SystemExit(f"{workload}: a run failed its checks")
                sets[name].append(result)
        print(f"\n== {workload} ({args.runs} runs per set, "
              f"{args.seconds:g} s each)")
        print(f"  {'metric':<16} {'set':<3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8} {'gap':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            medians = {}
            for name, results in (*sets.items(), ("all", sets["A"] + sets["B"])):
                values = [r["metrics"][metric]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians[name] = med
                spread = (q3 - q1) / med if med else float("nan")
                gap = ""
                if name == "B" and medians["A"]:
                    gap = f"{(medians['B'] - medians['A']) / medians['A']:+.3f}"
                print(f"  {metric:<16} {name:<3} {q1:12.6g} {med:12.6g} "
                      f"{q3:12.6g} {spread:8.3f} {gap:>8} {bound:6.2f}")
        for name, results in sets.items():
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"  failed share, set {name}: {failed}/{attempted}")
            print(f"  run_s, set {name}: " + " ".join(
                f"{r['metrics']['run_s']['value']:.4g}" for r in results))


if __name__ == "__main__":
    main()
