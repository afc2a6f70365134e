#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/repeat.py --workloads fit,serve_zipf --seeds 1-10
    python3 perfbench/repeat.py --workloads serve_zipf --seeds 1-10 --sets 2

For every workload and end-to-end metric it prints the median, the spread
(distance between the first and third quartile of the runs, as
statistics.quantiles(values, n=4) gives them, over the median) and the
metric's bound from BENCHMARK.json. With --sets 2 the seeds run twice and
the second set's median is compared with the first's. Runs one at a time,
from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="fit,serve_zipf,serve_large")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values, failed_share = {}, set()
            for seed in seeds:
                result = run_once(workload, seed, seconds, args.trace)
                if result is None or not result["correct"]:
                    print("%s seed %d: run failed or incorrect" %
                          (workload, seed))
                    ok = False
                    continue
                failed_share.add(result["failed"] / result["attempted"])
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print("== %s, set %d: %d runs, failed shares %s" %
                  (workload, s + 1, len(seeds), sorted(failed_share)))
            med = {}
            for name, v in sorted(values.items()):
                med[name] = statistics.median(v)
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [0, 0, 0]
                spread = (q[2] - q[0]) / med[name] if med[name] else 0.0
                bound = bounds.get(name, {}).get("bound")
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound:
                    flag = "  SPREAD ABOVE BOUND"
                    ok = False
                print("  %-30s median %12.4f  spread %.3f  bound %s%s" %
                      (name, med[name], spread, bound, flag))
            medians.append(med)
        for later in medians[1:]:
            for name, m in bounds.items():
                a, b = medians[0].get(name), later.get(name)
                if a is None or b is None or a == 0:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                state = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                if worse > m["bound"]:
                    ok = False
                print("  second set %-22s %+.3f of the first median  %s" %
                      (name, worse, state))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
