#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

Runs the command from BENCHMARK.json once per seed (seed0, seed0+1, ...),
then prints, for every metric, the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the quartile spread
(Q3 - Q1) / median next to the metric's bound. The bounds in
BENCHMARK.json are set and re-checked with it: every end-to-end spread
except setup_s should stay below a third of its bound.

    python3 e2ebench/steady.py --workload qset --runs 10 [--seed0 1] [--trace 0]

Run it from the repository root. The last stdout line is a JSON summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    values = {}
    shares = set()
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} exited {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"run with seed {seed} failed its output checks")
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  OK" if spread < bound / 3 else ("  WIDE" if spread <= bound else "  OVER")
        print(f"{name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{'' if bound is None else format(bound, '.2f'):>8}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    failed_share_steady = len({s if s == 0 else s[0] / s[1] for s in shares}) == 1
    print(f"failed share identical in every run: {failed_share_steady}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": seconds,
                      "failed_share_steady": failed_share_steady, "metrics": summary}))


if __name__ == "__main__":
    main()
