#!/usr/bin/env python3
"""Repeatability check the way the driver does it.

Runs BENCHMARK.json's command ten times per workload, each time with
another --seed, and prints for every end-to-end metric the distance
between the first and third quartile of its ten values
(statistics.quantiles(values, n=4)) as a share of their median, beside
the metric's bound. A spread should stay below a third of its bound.

    python3 tixbench/spread.py [--seeds 1-10] [--workloads a,b] [--trace 0]

Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {}
        for seed in range(lo, hi + 1):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            started = time.time()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            took = time.time() - started
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}, {result}")
            for metric, body in result["metrics"].items():
                values.setdefault(metric, []).append(body["value"])
            shown = " ".join(f"{m}={b['value']:.4g}" for m, b in result["metrics"].items())
            print(f"  {name} seed {seed}: {took:.1f} s, "
                  f"{result['attempted']} attempted; {shown}", file=sys.stderr)
        print(f"# {name}")
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                share = spread / bound if bound else float("inf")
                worst = max(worst, share if metric != "setup_s" else 0.0)
                flag = f"bound {bound:.2f}  spread/bound {share:.2f}"
                if share > 1 / 3 and metric != "setup_s":
                    flag += "  <-- above a third of the bound"
            print(f"{metric:<34} median {median:>14.4f}  spread {spread * 100:6.2f}%  {flag}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
