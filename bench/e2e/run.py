#!/usr/bin/env python3
"""Build nbtinoc_e2e from this checkout and run one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/nbtinoc_e2e at the checkout root (configured
once, then brought up to date). The benchmark's own JSON document is
printed first; the last line of stdout is the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ones BENCHMARK.json lists: its end_to_end metrics
with --trace 0, its per_layer metrics with --trace 1. The exit code is 0
whenever a summary was printed, even one with "correct": false, and
non-zero when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "nbtinoc_e2e")
EXE = os.path.join(BUILD, "nbtinoc_e2e")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("run.py: nbtinoc_e2e exited with %d" % proc.returncode)
    doc = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("run.py: nbtinoc_e2e did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps(doc))
    print(json.dumps({"correct": bool(doc["correct"]) and doc["ops_failed"] == 0,
                      "attempted": doc["ops"], "failed": doc["ops_failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
