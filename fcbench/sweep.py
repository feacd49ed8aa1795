#!/usr/bin/env python3
"""Run the benchmark over several seeds and save a result set.

Usage (from the repository root):

    python3 fcbench/sweep.py --out .bench_results/a --seeds 1-10
    python3 fcbench/sweep.py --out .bench_results/a --workloads cnn_train --seeds 1,2 --trace 1
    python3 fcbench/sweep.py --out .bench_results/pair --seeds 1-10 --base ../parent

Runs the command from BENCHMARK.json once per workload and seed, one run at
a time, and appends each run's result line to <out>/<workload>.jsonl as
{"seed": n, "trace": t, "result": {...}}. Prints, per workload and metric,
the median and the interquartile spread as a share of the median, which is
how fcbench/compare.py and the acceptance rule judge steadiness.

With --base DIR (the root of another checkout, usually the parent commit),
every seed runs as a pair, once in DIR and once here, alternating which side
runs first, so slow drift of the host hits both sides alike. Results go to
<out>/base and <out>/new, ready for fcbench/compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """Interquartile range over the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="result-set directory")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--base", help="checkout to pair every run with")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seconds = args.seconds or bench["run_seconds"]
    # (label, checkout root, output directory) of each side.
    if args.base:
        sides = [("base", args.base, os.path.join(args.out, "base")),
                 ("new", ".", os.path.join(args.out, "new"))]
    else:
        sides = [("new", ".", args.out)]
    for _, _, out in sides:
        os.makedirs(out, exist_ok=True)
    # Each checkout builds into its own directory; a shared absolute
    # CARGO_TARGET_DIR would make the two sides overwrite one binary.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build") if args.base else None
    failed = False
    for name in names:
        values = {}
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for label, root, out in order:
                cmd = bench["command"] + [
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    failed = True
                    sys.stderr.write(f"{label} {name} seed {seed}: exit {proc.returncode}\n"
                                     f"{proc.stdout}{proc.stderr}\n")
                    continue
                result = json.loads(lines[-1])
                with open(os.path.join(out, f"{name}.jsonl"), "a") as f:
                    f.write(json.dumps({"seed": seed, "trace": args.trace, "result": result}) + "\n")
                for metric, m in result["metrics"].items():
                    values.setdefault((label, metric), []).append(m["value"])
                print(f"{label} {name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
        for (label, metric), vals in values.items():
            print(f"  {label:<4} {name:<15} {metric:<32} median {statistics.median(vals):>14.4f}"
                  f"  spread {spread(vals):.4f}  (n={len(vals)})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
