#!/usr/bin/env python3
"""Compare two benchmark result sets metric by metric and workload by workload.

Usage (from the repository root):

    python3 fcbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds <workload>.jsonl files as written by fcbench/sweep.py.
Only untraced runs (trace 0) are compared, on the end_to_end metrics of
BENCHMARK.json with their bounds. Runs pair up by seed (seeds present in
both sets). For every metric x workload the tool prints each side's median
and quartiles, the change of the median, both spreads (interquartile range
over median), the pair wins, and one label:

  improved    the new set wins at least 9/10 of the pairs (ties count for
              neither) and its median differs from the base median by more
              than the base interquartile range;
  worse       the new median is worse than the base median by more than the
              metric's bound;
  unresolved  either side's spread is wider than the bound, unless every new
              run is better than every base run;
  unchanged   otherwise.

Exits 1 when any pair is labelled worse.
"""

import argparse
import json
import os
import statistics
import sys

PAIR_WIN_SHARE = 0.9


def load(directory):
    runs = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".jsonl"):
            continue
        workload = entry[: -len(".jsonl")]
        with open(os.path.join(directory, entry)) as f:
            for line in f:
                record = json.loads(line)
                if record.get("trace", 0) != 0:
                    continue
                runs.setdefault(workload, {})[record["seed"]] = record["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def label(base, new, better, bound):
    """Label one metric x workload from paired values (same seeds, same order)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    base_spread = (b3 - b1) / bmed if bmed else float("inf")
    new_spread = (n3 - n1) / nmed if nmed else float("inf")
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    pairs = len(base)
    worse_by = -sign * (nmed - bmed) / bmed if bmed else 0.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if wins >= PAIR_WIN_SHARE * pairs and abs(nmed - bmed) > (b3 - b1):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "worse"
    elif max(base_spread, new_spread) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base": (b1, bmed, b3),
        "new": (n1, nmed, n3),
        "change": (nmed - bmed) / bmed if bmed else 0.0,
        "spreads": (base_spread, new_spread),
        "wins": wins,
        "pairs": pairs,
        "verdict": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base_runs, new_runs = load(args.base), load(args.new)
    any_worse = False
    header = (f"{'workload':<15} {'metric':<20} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'change':>8} {'spreads':>15} {'wins':>6}  verdict")
    print(header)
    for workload in [w["name"] for w in bench["workloads"]]:
        base, new = base_runs.get(workload, {}), new_runs.get(workload, {})
        seeds = sorted(set(base) & set(new))
        if not seeds:
            print(f"{workload:<15} no paired runs")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [base[s]["metrics"][name]["value"] for s in seeds]
            n = [new[s]["metrics"][name]["value"] for s in seeds]
            r = label(b, n, metric["better"], metric["bound"])
            any_worse |= r["verdict"] == "worse"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"{workload:<15} {name:<20} {fmt(r['base']):>34} {fmt(r['new']):>34} "
                  f"{100 * r['change']:>+7.2f}% {r['spreads'][0]:>7.3f}/{r['spreads'][1]:<7.3f} "
                  f"{r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
