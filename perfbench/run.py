#!/usr/bin/env python3
"""mctdb end-to-end benchmark: build the program, run one workload, report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build|read_cold|mixed \
        --seed N --seconds S --trace 0|1

The first run configures and builds the mctdb libraries and the perfbench
binary from source into .bench_build/perfbench-cmake (about a minute on
four cores); later runs only check that the build is current. The binary
runs the workload, checks every answer, and prints every metric it
measured. This script relays that output and ends it with one JSON line
holding the metrics BENCHMARK.json names: the end-to-end ones for
--trace 0, the per-layer ones for --trace 1.

Exit codes: 0 on success; 2 when the sources or arguments are unusable;
otherwise the binary's own nonzero code (3 = wrong answers), with no
result line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Compilers and the benchmark keep their temporary files in the checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=ENV).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mctdb sources at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                   "--target", "perfbench"])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed (log: " + log + ")")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line)
        fail("perfbench exited with code %d" % proc.returncode,
             proc.returncode or 1)
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("wrong answers", 3)
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"], 1)
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 1)
        if not args.trace and got["value"] <= 0:
            fail("end-to-end metric %s read %r" % (m["name"], got["value"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
