#!/usr/bin/env python3
"""Run-to-run spread and median shift of the benchmark's metrics.

Runs `python3 perfbench/run.py` once per seed for each workload (from the
root of a checkout) and prints, for every metric of the result line, its
median and its quartile spread (Q3 - Q1) / median — the spread the
benchmark's bounds are judged against, with statistics.quantiles(n=4).

    python3 perfbench/spread.py --workloads read_cold --seeds 5
    python3 perfbench/spread.py --workloads build,read_cold,mixed \
        --seeds 10 --save base.json
    MCTDB_FAILPOINTS='pager.read=delay(1)' python3 perfbench/spread.py \
        --workloads read_cold,mixed --seeds 3 --against base.json

--save writes the medians; --against prints each median's change from a
saved run as a share of the saved median, next to the metric's bound. The
environment (MCTDB_FAILPOINTS included) is passed to every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("%s seed %d failed with code %d" % (workload, seed,
                                                     proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base = {}
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
    summary = {}
    seconds = spec["run_seconds"]
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d seeds)" % (workload, args.seeds))
        summary[workload] = {}
        for name, v in sorted(values.items()):
            median = statistics.median(v)
            summary[workload][name] = median
            line = "  %-32s median %14.4f" % (name, median)
            if len(v) >= 2 and median:
                q1, _, q3 = statistics.quantiles(v, n=4)
                line += "  spread %6.3f" % ((q3 - q1) / median)
            if name in bounds:
                line += "  bound %.2f" % bounds[name]
            old = base.get(workload, {}).get(name)
            if old:
                line += "  change %+7.3f" % ((median - old) / old)
            print(line)
            print("    " + " ".join("%.4g" % x for x in v))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=2)


if __name__ == "__main__":
    main()
