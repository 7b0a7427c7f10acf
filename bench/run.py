#!/usr/bin/env python3
"""Deterministic benchmark along the paper's TTL axis.  See bench/README.md.

    python bench/run.py --workload serve_hot [--seed N] [--seconds S] [--trace]
    python bench/run.py --all

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) the per-layer ones.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEFAULT_SEED = 20191021
#: Fresh interpreters per set-up measurement; the median is reported.
SETUP_RUNS = 5
#: Untraced rounds a traced run measures for its overhead and latency figures.
TRACED_RUN_ROUNDS = 2
MIN_ROUNDS = 3

sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import tracing  # noqa: E402
from workloads import SPAN_REQUESTS, SPECS, build  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "py_calls_per_query": "calls",
    "peak_rss_mb": "MB",
}
#: The end-to-end metric that is a count: the same seed gives the same value.
EXACT_END_TO_END = ("py_calls_per_query",)
#: Exact ratios: name -> (numerator counter, denominator counters or "queries").
RATIOS = {
    "resolver.cache.hit_share": ("cache.hits", ("cache.hits", "cache.misses")),
    "resolver.cache.inserts_per_query": ("cache.inserts", "queries"),
    "net.transport.exchanges_per_query": ("net.exchanges", "queries"),
    "net.transport.retries_per_query": ("net.retries", "queries"),
    "server.authoritative.queries_per_query": ("auth.queries", "queries"),
    "serve.memo.hit_share": ("serve.memo.hits", ("serve.memo.hits", "serve.memo.misses")),
    "atlas.client_hit_share": ("atlas.client_hits", "queries"),
}
#: Exact ratios read from the profiled round's call counts: (layer, function).
CALL_RATIOS = {
    "serve.memo.puts_per_query": ("serve.memo", "put"),
    "serve.frontend.slow_path_share": ("serve.frontend", "handle_wire"),
}
DIAGNOSTICS = {
    "serve.frontend.latency_p50_us": "us",
    "serve.frontend.latency_p90_us": "us",
    "serve.frontend.latency_p99_us": "us",
    "serve.frontend.latency_p999_us": "us",
    "harness.round_spread": "ratio",
    "harness.timer_overhead_us": "us",
    "harness.trace_overhead_share": "ratio",
}


#: Per-layer metrics that are counts, not times: they repeat to the last digit.
EXACT_PER_LAYER = (
    *(f"{layer}.calls_per_query" for layer in tracing.LAYERS),
    *RATIOS,
    *CALL_RATIOS,
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls_per_query"] = "calls"
        units[f"{layer}.self_us_per_query"] = "us"
    units.update(dict.fromkeys(list(RATIOS) + list(CALL_RATIOS), "ratio"))
    units.update(DIAGNOSTICS)
    return units


class CheckFailed(Exception):
    """An output check did not hold; the run is reported incorrect."""


# ------------------------------------------------------------------ rounds


class Measured:
    """The rounds of one run, checked against each other as they arrive."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first = None
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        #: Per-query latencies of the fastest round so far (serve only).
        self.fastest_latencies_ns = None
        self.attempted = 0
        self.failed = 0

    def add(self, state, outputs, wall_s: float, cpu_s: float) -> None:
        # Only the first round is verified response by response; a later
        # round with the same digest produced the same bytes and counters.
        check = self.workload.check(state, outputs, verify=self.first is None)
        if self.first is None:
            self.first = check
            if check.problems:
                raise CheckFailed("; ".join(check.problems))
        elif check.digest != self.first.digest:
            raise CheckFailed(
                f"round {len(self.wall_s)} digest {check.digest} differs from "
                f"round 0 {self.first.digest}: rounds are not identical"
            )
        self.attempted += check.queries
        self.failed += self.first.failed
        if not self.wall_s or wall_s < min(self.wall_s):
            self.fastest_latencies_ns = check.latencies_ns
        self.wall_s.append(wall_s)
        self.cpu_s.append(cpu_s)


def timed_round(workload, measured: Measured, profiler=None) -> None:
    state = workload.fresh()
    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    outputs = workload.work(state)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    measured.add(state, outputs, wall_s, cpu_s)


def profiled_round(workload, measured: Measured):
    """One more round under cProfile, held to the timed rounds' digest."""
    profiled = Measured(workload)
    profiler = cProfile.Profile()
    timed_round(workload, profiled, profiler)
    if profiled.first.digest != measured.first.digest:
        raise CheckFailed("the profiled round's outputs differ from the timed rounds'")
    return profiled, tracing.layer_profile(profiler)


def program_calls(calls: dict[str, int]) -> int:
    """Calls the program made: every layer but the benchmark's own."""
    return sum(calls.values()) - calls["harness"]


def percentile(sorted_values: list[int], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def timer_overhead_us() -> float:
    """What the two ``perf_counter_ns`` calls around a query cost."""
    now_ns = time.perf_counter_ns
    samples = []
    for _ in range(20001):
        started = now_ns()
        samples.append(now_ns() - started)
    return statistics.median(samples) / 1000.0


# ------------------------------------------------------------------ set-up


def measure_setup(name: str, seed: int, scale: float, runs: int) -> list[float]:
    """Cold-start seconds of ``runs`` fresh interpreters, each timing its own
    import + build + first answers (interpreter start-up and input generation
    are the benchmark's, not the program's, and stay outside)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
    ]  # fmt: skip
    times = []
    for _ in range(runs):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise CheckFailed(f"set-up child failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


def setup_only(workload) -> None:
    started = time.perf_counter()
    workload.setup_once()
    print(repr(time.perf_counter() - started))


# -------------------------------------------------------------------- runs


def run_untraced(workload, seconds: float, setup_times: list[float]) -> tuple[Measured, dict]:
    measured = Measured(workload)
    deadline = time.perf_counter() + seconds
    while len(measured.wall_s) < MIN_ROUNDS or time.perf_counter() < deadline:
        timed_round(workload, measured)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _, (calls, _, _) = profiled_round(workload, measured)

    queries = measured.first.queries
    # Noise on a shared host only ever adds time, so the fastest of the
    # identical rounds is the closest to what the code costs.
    values = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": queries / min(measured.wall_s),
        "py_calls_per_query": program_calls(calls) / queries,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "rounds": len(measured.wall_s),
        "queries_per_round": queries,
        "setup_min_s": min(setup_times),
        "setup_runs": len(setup_times),
        "fastest_round_s": min(measured.wall_s),
        "median_round_s": statistics.median(measured.wall_s),
        "cpu_over_wall": sum(measured.cpu_s) / sum(measured.wall_s),
        "digest": measured.first.digest,
        **round_diagnostics(measured),
    }
    return measured, {"metrics": values, "notes": notes}


def round_diagnostics(measured: Measured) -> dict[str, float]:
    """Figures that make a disturbed run recognisable in its own output."""
    notes = {}
    if len(measured.wall_s) >= 4:
        q1, _, q3 = statistics.quantiles(measured.wall_s, n=4)
        notes["harness.round_spread"] = q3 / q1
    else:
        notes["harness.round_spread"] = max(measured.wall_s) / min(measured.wall_s)
    if measured.fastest_latencies_ns is not None:
        ordered = sorted(measured.fastest_latencies_ns)
        for label, share in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)):
            notes[f"serve.frontend.latency_{label}_us"] = percentile(ordered, share) / 1000.0
        notes["latency_samples"] = len(ordered)
    return notes


def run_traced(workload, seed: int) -> tuple[Measured, dict]:
    measured = Measured(workload)
    for _ in range(TRACED_RUN_ROUNDS):
        timed_round(workload, measured)

    profiled, (calls, self_s, functions) = profiled_round(workload, measured)

    sampler = tracing.SpanSampler(SPAN_REQUESTS)
    state = workload.fresh(sample=True)
    sys.setprofile(sampler)
    try:
        workload.work(state)
    finally:
        sys.setprofile(None)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w") as handle:
        json.dump(
            {"workload": workload.name, "seed": seed, "requests": sampler.requests,
             "spans": sampler.payload()},
            handle,
        )  # fmt: skip

    queries = measured.first.queries
    counters = dict(measured.first.counters, queries=queries)
    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.calls_per_query"] = calls[layer] / queries
        values[f"{layer}.self_us_per_query"] = self_s[layer] / queries * 1e6
    for name, (top, bottom) in RATIOS.items():
        bottoms = (bottom,) if isinstance(bottom, str) else bottom
        denominator = sum(counters.get(part, 0) for part in bottoms)
        values[name] = counters.get(top, 0) / denominator if denominator else 0.0
    for name, key in CALL_RATIOS.items():
        values[name] = functions.get(key, 0) / queries
    values.update(dict.fromkeys(DIAGNOSTICS, 0.0))
    diagnostics = round_diagnostics(measured)
    samples = diagnostics.pop("latency_samples", 0)
    values.update(diagnostics)
    values["harness.timer_overhead_us"] = timer_overhead_us()
    values["harness.trace_overhead_share"] = 1.0 - min(measured.wall_s) / profiled.wall_s[0]
    notes = {
        "rounds": len(measured.wall_s),
        "queries_per_round": queries,
        "latency_samples": samples,
        "span_requests": sampler.requests,
        "spans": len(sampler.spans),
        "untraced_queries_per_s": queries / min(measured.wall_s),
        "program_calls_per_query": program_calls(calls) / queries,
        "digest": measured.first.digest,
    }
    return measured, {"metrics": values, "notes": notes}


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: float,
                 setup_runs: int = SETUP_RUNS) -> dict:  # fmt: skip
    """One full run; returns the contract's result object plus ``notes``.
    Raises :class:`CheckFailed` when the outputs cannot be trusted."""
    workload = build(name, seed, scale)
    units = per_layer_units() if trace else END_TO_END
    if trace:
        measured, report = run_traced(workload, seed)
    else:
        setup_times = measure_setup(name, seed, scale, setup_runs)
        measured, report = run_untraced(workload, seconds, setup_times)
    return {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            metric: {"value": report["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        },
        "notes": report["notes"],
    }


def emit(name: str, seed: int, trace: int, result: dict) -> None:
    print(f"# {name} seed={seed} trace={trace}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    for note, value in result["notes"].items():
        print(f"# {note} {value:.6g}" if isinstance(value, float) else f"# {note} {value}")
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-layers" if trace else ""
    with open(os.path.join(OUT_DIR, f"{name}{suffix}.json"), "w") as handle:
        json.dump({"workload": name, "seed": seed, **result}, handle, indent=1)
    contract = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(contract))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(SPECS))
    which.add_argument("--all", action="store_true", help="run the four workloads in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0, help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="round size multiplier")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(f"no program to measure: {REPO_ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    if args.all:
        status = 0
        for name in SPECS:
            child = [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(args.seed), "--seconds", repr(args.seconds),
                     "--trace", str(args.trace), "--scale", repr(args.scale)]  # fmt: skip
            status |= subprocess.run(child).returncode
        return status
    if args.setup_only:
        setup_only(build(args.workload, args.seed, args.scale))
        return 0
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except CheckFailed as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    emit(args.workload, args.seed, args.trace, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") is None:
        # Fix str-hash randomisation so set/dict layouts repeat between runs;
        # the variable is set before the exec, so this happens once.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
