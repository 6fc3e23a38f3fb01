#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 h2bench/spread.py --workload live-get --seeds 1-10 [--trace 1]

Spread = (third quartile - first quartile) / median over the seeds, with
quartiles as statistics.quantiles(values, n=4) gives them: the figure the
bounds in BENCHMARK.json are checked against. Runs the command recorded in
BENCHMARK.json from the root of the checkout; --json FILE also saves every
run's result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, results = {}, []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            print("\n".join(lines[-15:]))
            continue
        result = json.loads(lines[-1])
        results.append({"seed": seed, "result": result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    print("%-36s %12s %8s %6s %s" % ("metric", "median", "spread", "bound", ""))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread == spread:
            flag = "ok" if spread < bound / 3 else ("WITHIN" if spread <= bound else "OVER")
        print("%-36s %12.5g %8.3f %6s %s" % (name, med, spread,
                                             "" if bound is None else bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
