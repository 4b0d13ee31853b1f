#!/usr/bin/env python3
"""Run the benchmark the way the driver does and record how well it repeats.

    python3 crates/bench/src/bin/bench_report/repeatability.py [--runs 10] [--out baseline.json]

From the repository root. Makes two sets of `--runs` end-to-end runs per
workload, every run with another --seed, plus one traced run per workload and
set. For each end-to-end (metric, workload) pair it records, per set, the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, and how far the second set's median is worse than the
first's. A pair is flagged when a spread or that shift exceeds the metric's
bound in BENCHMARK.json (setup_s is exempt from the spread rule), and warned
about when a spread exceeds a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    started = time.time()
    done = subprocess.run(args, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    result["wall_s"] = round(time.time() - started, 1)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default="crates/bench/src/bin/bench_report/baseline.json")
    opts = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    problems, warnings = [], []
    baseline = {"runs_per_set": opts.runs, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets, traced, walls = [], [], []
        for first_seed in (1, 1 + opts.runs):
            runs = [run(bench["command"], workload, seed, seconds, 0)
                    for seed in range(first_seed, first_seed + opts.runs)]
            walls += [r["wall_s"] for r in runs]
            sets.append({m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                         for m in bench["end_to_end"]})
            layer = run(bench["command"], workload, first_seed, seconds, 1)
            walls.append(layer["wall_s"])
            traced.append({name: metric["value"] for name, metric in layer["metrics"].items()})
        shifts = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[name]["median"] for s in sets)
            worse = (second - first) / first * (1 if metric["better"] == "lower" else -1)
            shifts[name] = worse
            pair = f"{name} @ {workload}"
            if worse > bound:
                problems.append(f"{pair}: second median worse by {worse:.3f} > bound {bound}")
            for i, s in enumerate(sets):
                if name == "setup_s":
                    continue
                if s[name]["spread"] > bound:
                    problems.append(f"{pair}: set {i + 1} spread {s[name]['spread']:.3f} > bound {bound}")
                elif s[name]["spread"] > bound / 3:
                    warnings.append(f"{pair}: set {i + 1} spread {s[name]['spread']:.3f} > bound/3")
        baseline["workloads"][workload] = {
            "end_to_end_sets": sets,
            "second_median_worse_by": shifts,
            "per_layer_runs": traced,
            "max_run_wall_s": max(walls),
        }
        print(f"{workload}: done, slowest run {max(walls)} s", flush=True)
    baseline["problems"], baseline["warnings"] = problems, warnings
    with open(opts.out, "w") as out:
        json.dump(baseline, out, indent=1)
        out.write("\n")
    for line in warnings:
        print("WARN", line)
    for line in problems:
        print("PROBLEM", line)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
