#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself within its own bounds?

    python bench/aa.py --sets 2 --runs 3

Runs every workload ``--runs`` times per set, each run with another seed (the
same seeds in every set), the sets interleaved run by run, then once per set
traced.  For each end-to-end metric it prints the first set's median, the
worst median of the later sets and how much worse that reads, and the widest
spread (interquartile range over median) within a set; it exits non-zero when
a shift or a spread exceeds the metric's bound in BENCHMARK.json, or when a
metric that is a count differs between sets for the same seed.
``--sets 2 --runs 10`` is the acceptance check a benchmark driver applies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, EXACT_END_TO_END, EXACT_PER_LAYER, OUT_DIR, REPO_ROOT

RUN = os.path.join(BENCH_DIR, "run.py")
#: Seed of each set's first run (and of its traced run); run ``i`` adds ``i``.
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [entry["name"] for entry in spec["workloads"]]
    # values[workload][metric][set] -> one value per run
    values = {
        name: {metric["name"]: [[] for _ in range(args.sets)] for metric in spec["end_to_end"]}
        for name in workloads
    }
    for run in range(args.runs):
        for index in range(args.sets):
            for name in workloads:
                got = run_once(name, FIRST_SEED + run, spec["run_seconds"], trace=0)
                for metric, value in got.items():
                    values[name][metric][index].append(value)
                print(f"set {index} run {run} {name} done", file=sys.stderr)
    # traced[workload][set] -> the exact per-layer metrics of one traced run
    traced = {}
    for name in workloads:
        runs = [run_once(name, FIRST_SEED, spec["run_seconds"], trace=1) for _ in range(args.sets)]
        traced[name] = [{metric: got[metric] for metric in EXACT_PER_LAYER} for got in runs]
        print(f"traced {name} done", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "aa.json"), "w") as handle:
        json.dump({"end_to_end": values, "exact_per_layer": traced}, handle, indent=1)

    return 1 if table(values, spec) + exact_mismatches(values, traced) else 0


def table(values: dict, spec: dict) -> int:
    """Print one row per (workload, metric); returns the number of breaches."""
    breaches = 0
    print(
        f"{'workload':<18} {'metric':<19} {'median A':>12} {'worst other':>12} "
        f"{'worse':>8} {'spread':>8} {'bound':>6}"
    )
    for name in values:
        for metric in spec["end_to_end"]:
            sets = values[name][metric["name"]]
            first, *later = map(statistics.median, sets)
            # "Worse" is in the metric's bad direction, relative to the first set.
            sign = 1 if metric["better"] == "lower" else -1
            worst = max(later, key=lambda median: sign * median, default=first)
            worse = sign * (worst - first) / first
            widest = max(map(spread, sets))
            flag = " BREACH" if max(worse, widest) > metric["bound"] else ""
            breaches += bool(flag)
            print(
                f"{name:<18} {metric['name']:<19} {first:>12.6g} "
                f"{worst:>12.6g} {worse:>+8.2%} {widest:>8.2%} "
                f"{metric['bound']:>6.2f}{flag}"
            )
    return breaches


def exact_mismatches(values: dict, traced: dict) -> int:
    """Counts must equal the first set's, seed by seed; returns how many do not."""
    differing = []
    for name in values:
        for metric in EXACT_END_TO_END:
            first, *later = values[name][metric]
            differing += [f"{name} {metric}" for other in later if other != first]
        first, *later = traced[name]
        differing += [
            f"{name} {metric}" for other in later for metric in first if other[metric] != first[metric]
        ]
    for line in differing:
        print(f"DIFFERS BETWEEN SETS {line}")
    print(
        f"exact: {', '.join(EXACT_END_TO_END)} seed by seed and {len(EXACT_PER_LAYER)} per-layer "
        f"counts and ratios per workload, {len(differing)} differ between sets"
    )
    return len(differing)


if __name__ == "__main__":
    sys.exit(main())
