#!/usr/bin/env python3
"""A/A steadiness: runs one workload N times on one commit and prints,
for every metric, its median, quartiles and quartile spread.

usage: python3 perfbench/aa.py --workload W [--runs N] [--seed0 S] [--trace]

Run i uses seed S + i (default S = 1), the way runs are compared across
commits, each for BENCHMARK.json's run_seconds. The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); it is printed next to the metric's
bound from BENCHMARK.json. With --trace each seed also gets a traced run:
its per-layer metrics are summarised too, and the tracing overhead is
the traced run's end-to-end median against the untraced one, and each
stage's share of the timed section is summarised from the traced runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    # Traced runs also print the end-to-end figures as "traced" lines and
    # each stage's share of the timed section as "share" lines.
    traced = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in ("traced", "share"):
            traced[parts[1]] = float(parts[2])
    return result, traced


def summarise(title, samples, bounds):
    print(title)
    print("  %-26s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in samples.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("  %-26s %12.6g %12.6g %12.6g %8.4f %6s   runs: %s" %
              (name, med, q1, q3, spread,
               "%.2f" % bound if bound is not None else "-",
               " ".join("%.4g" % v for v in vals)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    e2e, layers, traced_e2e, shares = {}, {}, {}, set()
    for i in range(a.runs):
        seed = a.seed0 + i
        res, _ = run(a.workload, seed, seconds, False)
        if not res["correct"]:
            sys.exit("seed %d: outputs failed their checks" % seed)
        shares.add((res["failed"], res["attempted"]))
        for k, v in res["metrics"].items():
            e2e.setdefault(k, []).append(v["value"])
        if a.trace:
            tres, tr = run(a.workload, seed, seconds, True)
            for k, v in tres["metrics"].items():
                layers.setdefault(k, []).append(v["value"])
            for k, v in tr.items():
                traced_e2e.setdefault(k, []).append(v)
        print("seed %d done" % seed, file=sys.stderr)

    print("workload %s: %d runs, seeds %d..%d, %d s each" %
          (a.workload, a.runs, a.seed0, a.seed0 + a.runs - 1, seconds))
    print("failed/attempted per run: %s" %
          ", ".join("%d/%d" % s for s in sorted(shares)))
    summarise("end-to-end (untraced runs)", e2e, bounds)
    if a.trace:
        summarise("per-layer (traced runs)", layers, {})
        print("tracing overhead (traced median / untraced median - 1)")
        for k, vals in traced_e2e.items():
            if k.startswith("stage."):
                continue
            base = statistics.median(e2e[k])
            print("  %-26s %+8.2f%%" %
                  (k, 100.0 * (statistics.median(vals) / base - 1)
                   if base else 0.0))
        summarise("stage shares of the timed section (traced runs)",
                  {k: v for k, v in traced_e2e.items()
                   if k.startswith("stage.")}, {})


if __name__ == "__main__":
    main()
