#!/usr/bin/env python3
"""postr-bench: builds the benchmark from source and runs one workload.

Run from the root of a PosTr checkout:

  python3 postr-bench/run.py --workload solve-mix --seed 1 --seconds 22 --trace 0
  python3 postr-bench/run.py --steady [--runs 10] [--workloads a,b]
  python3 postr-bench/run.py --define          # re-record instances.tsv

A run prints a readable report (lines starting with '#') and, last, one
JSON line: {"correct", "attempted", "failed", "metrics"}. Build output
goes to stderr; everything is built under .bench_build/ in the checkout.
See postr-bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "postr_bench")
SERVE_BIN = os.path.join(BUILD, "tools", "postr_serve")
INSTANCES = os.path.join(HERE, "instances.tsv")
WORKLOADS = ["solve-mix", "position", "serve-replay", "deadline"]
SETS = 2  # --steady compares the second set's medians with the first's


def fail(msg, code):
    print("postr-bench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the two binaries up to date."""
    for need in ("CMakeLists.txt", "src", os.path.join("bench", "workloads")):
        if not os.path.exists(os.path.join(REPO, need)):
            fail("no PosTr source tree around postr-bench (missing %s)" % need, 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    cmd = ["cmake", "--build", BUILD, "--target", "postr_bench",
           "postr_serve", "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def bench_cmd(workload, seed, seconds, trace):
    return [BENCH_BIN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--instances", INSTANCES, "--serve-bin", SERVE_BIN]


def run_once(workload, seed, seconds, trace):
    """One run; returns the parsed result line (or None on failure)."""
    out = subprocess.run(bench_cmd(workload, seed, seconds, trace), cwd=REPO,
                         stdout=subprocess.PIPE, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(args):
    """Runs every workload in two sets of --runs runs and prints each
    end-to-end metric's median and quartile spread against its bound, and
    how much worse the second set's median is than the first's (the
    evidence the benchmark's bounds ask for)."""
    bench = spec()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    worst = 0.0
    for w in workloads:
        sets = []
        for s in range(SETS):
            vals = {name: [] for name in bounds}
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                res = run_once(w, seed, seconds, 0)
                if res is None or not res["correct"]:
                    fail("%s seed %d: run failed or incorrect: %r"
                         % (w, seed, res), 1)
                for name in bounds:
                    vals[name].append(res["metrics"][name]["value"])
                print("%s set %d seed %d: %s" % (w, s, seed, " ".join(
                    "%s=%.4g" % (n, v[-1]) for n, v in vals.items())),
                    flush=True)
            sets.append(vals)
        for name, m in bounds.items():
            row = []
            for vals in sets:
                q1, med, q3 = statistics.quantiles(vals[name], n=4)
                spread = (q3 - q1) / med
                row.append((med, spread))
                worst = max(worst, spread / m["bound"])
            a, b = row[0][0], row[1][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / m["bound"])
            print("%-13s %-15s bound %.2f  " % (w, name, m["bound"]) +
                  "  ".join("median %.4g spread %.3f" % r for r in row) +
                  " set2 worse by %+.3f" % worse, flush=True)
    print("largest spread or shift / bound: %.3f" % worst)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--define", action="store_true")
    args = p.parse_args()

    build()
    if args.steady:
        steady(args)
        return 0
    if args.define:
        return subprocess.run([BENCH_BIN, "--define", INSTANCES],
                              cwd=REPO).returncode
    if not args.workload:
        p.error("--workload is required")
    seconds = args.seconds or spec()["run_seconds"]
    return subprocess.run(bench_cmd(args.workload, args.seed, seconds,
                                    args.trace), cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
