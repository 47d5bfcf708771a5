#!/usr/bin/env python3
"""Steadiness mode: two sets of runs of one commit.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--seed0 1000] [--trace 0] [--out FILE]

Runs perfbench/run.py once per seed (a new seed for every run), for
every workload of BENCHMARK.json, in --sets sets of --runs runs.  For
each workload and end-to-end metric it prints, per set, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, and flags:

  SPREAD  a spread above the metric's bound;
  DRIFT   a second-set median worse than the first by more than the bound;
  FAILED  a share of failed operations that differs between the sets.

setup_s is held to its bound by DRIFT alone, as the benchmark's
acceptance does: its bound is there so that work moved into set-up
shows as a shift of the median.  A set-up lasts 0.1-0.4 s and mostly
waits on file reads and process start, so its run-to-run spread follows
the host's disk and scheduler load more than the program.  Its spread
is printed, marked "(not gated)".

Run it from the root of the checkout.  --out writes every run's result
as JSON lines.  The exit code is 1 when anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads is None
                 else args.workloads.split(","))
    out = open(args.out, "a") if args.out else None
    flagged = False
    seed = args.seed0
    results = {}  # (workload, set) -> list of results
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                r = run_once(w, seed, bench["run_seconds"], args.trace)
                r["workload"], r["seed"], r["set"] = w, seed, s
                seed += 1
                results.setdefault((w, s), []).append(r)
                if out:
                    out.write(json.dumps(r) + "\n")
                    out.flush()
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d wall=%.1fs" % (
                    s, w, r["seed"], r["correct"], r["attempted"], r["failed"], r["wall_s"]),
                    file=sys.stderr)
                if not r["correct"]:
                    flagged = True
    for w in workloads:
        print("\n== %s" % w)
        shares = []
        for s in range(args.sets):
            rs = results[(w, s)]
            shares.append(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs))
        print("failed share per set: %s%s" % (
            ", ".join("%.6f" % x for x in shares),
            "  FAILED" if len(set(shares)) > 1 else ""))
        if len(set(shares)) > 1:
            flagged = True
        for m in metrics:
            name = m["name"]
            cells, medians = [], []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[(w, s)]]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                flag = ""
                if args.trace == 0 and name == "setup_s":
                    flag = " (not gated)"
                elif args.trace == 0 and spread > m["bound"]:
                    flag = " SPREAD"
                    flagged = True
                cells.append("med %.4g q1 %.4g q3 %.4g spread %.3f%s" % (q2, q1, q3, spread, flag))
                medians.append(q2)
            drift = ""
            if args.trace == 0 and len(medians) > 1 and medians[0]:
                change = (medians[-1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                drift = "  drift %+.3f" % change
                if worse > m["bound"]:
                    drift += " DRIFT"
                    flagged = True
            print("  %-22s %s%s" % (name, " | ".join(cells), drift))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
