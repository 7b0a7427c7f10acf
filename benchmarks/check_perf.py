"""CI perf-regression gate.

Compares ``output/BENCH_perf.json`` (fresh ``make bench-perf`` results)
against the checked-in ``baseline_perf.json`` and exits non-zero when a
named bench's ``ops_per_s`` fell more than the allowed fraction below its
baseline.  Faster-than-baseline is always a pass — the gate only guards
against regressions, the baseline is a floor, not a pin.

When the fresh records include the ``serve_worker_scaling_w{N}`` series
the gate also checks the *shape* of the worker curve: no collapse — each
added step of workers may cost at most the scaling tolerance (on the
hosts measured so far extra workers are context-switch overhead and
loopback numbers are noisy).  ``campaign_large`` is held the same way:
the ``--parallel 4`` wall must stay within a bounded overhead of the
serial wall.  Neither rule demands a speedup: no session has had the
CPUs to execute one, and a gate branch that never ran guards nothing.

Usage::

    python benchmarks/check_perf.py warm_resolution [campaign_throughput ...] \
        [--max-regression 0.25] [--scaling-tolerance 0.5]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.perf_records import RECORDS_PATH, load_baseline  # noqa: E402

SCALING_PREFIX = "serve_worker_scaling_w"
CAMPAIGN_BENCH = "campaign_large"


def check_campaign_gate(
    current: dict,
    baseline: dict,
    *,
    min_uplift: float,
    overhead_cap: float,
) -> bool:
    """Validate the large-campaign numbers recorded by bench_perf_campaign_large.

    Two checks, both skipped when the record is absent (partial bench
    runs):

    - single-worker throughput must reach ``min_uplift`` times the
      checked-in ``campaign_throughput`` baseline — the flattened-kernel
      dividend, judged against the *pre-optimization* floor;
    - the 4-worker run must cost no more than bounded overhead:
      parallel-4 wall within ``overhead_cap`` of serial wall.
    """
    record = current.get(CAMPAIGN_BENCH)
    if record is None:
        return True
    ok = True

    base = baseline.get("campaign_throughput", {}).get("ops_per_s")
    ops = record.get("ops_per_s")
    if base is None or ops is None:
        print(f"FAIL {CAMPAIGN_BENCH}: missing ops_per_s or campaign_throughput baseline")
        ok = False
    else:
        floor = base * min_uplift
        good = ops >= floor
        print(
            f"{'ok' if good else 'FAIL':>4} {CAMPAIGN_BENCH} single-worker: "
            f"{ops:,.1f} q/s vs {min_uplift:.2f}x campaign_throughput "
            f"baseline {base:,.1f} (floor {floor:,.1f}, {ops / base:.2f}x)"
        )
        ok = ok and good

    cpus = record.get("cpus") or 1
    serial = record.get("serial_wall_s")
    parallel = record.get("parallel4_wall_s")
    if serial is None or parallel is None:
        print(f"FAIL {CAMPAIGN_BENCH}: missing serial/parallel wall times")
        good = False
    else:
        # The pool may not be able to speed anything up, but it must not
        # cost more than bounded overhead either.
        cap = serial * overhead_cap
        good = parallel <= cap
        print(
            f"{'ok' if good else 'FAIL':>4} {CAMPAIGN_BENCH} 4-worker: "
            f"wall {parallel:.2f}s vs serial {serial:.2f}s "
            f"(cap {cap:.2f}s = {overhead_cap:.2f}x, {cpus} cpu(s))"
        )
    return ok and good


def check_worker_curve(current: dict, tolerance: float) -> bool:
    """Validate the worker-scaling curve recorded by bench_serve_worker_scaling.

    Returns True when the curve is acceptable (or absent).  Points are
    compared pairwise in worker order: extra workers need not help, but
    each step must stay within ``tolerance`` of the one before.
    """
    points = []
    for name, fields in current.items():
        if not name.startswith(SCALING_PREFIX):
            continue
        try:
            workers = int(name[len(SCALING_PREFIX):])
        except ValueError:
            continue
        points.append((workers, fields))
    if len(points) < 2:
        return True

    points.sort()
    ok = True
    for (prev_workers, prev), (next_workers, fields) in zip(points, points[1:]):
        prev_ops, next_ops = prev.get("ops_per_s"), fields.get("ops_per_s")
        if prev_ops is None or next_ops is None:
            print(f"FAIL worker curve: w{prev_workers}->w{next_workers} missing ops_per_s")
            ok = False
            continue
        cpus = fields.get("cpus") or 1
        good = next_ops >= prev_ops * (1.0 - tolerance)
        rule = f"within {tolerance:.0%} of w{prev_workers} ({cpus} cpu(s))"
        verdict = "ok" if good else "FAIL"
        print(
            f"{verdict:>4} worker curve w{prev_workers}->w{next_workers}: "
            f"{prev_ops:,.1f} -> {next_ops:,.1f} ops/s [{rule}]"
        )
        ok = ok and good
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benches", nargs="+", help="bench names to gate (e.g. warm_resolution)")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional drop vs baseline ops_per_s (default 0.25)",
    )
    parser.add_argument(
        "--scaling-tolerance",
        type=float,
        default=0.5,
        help="allowed per-step drop in the worker curve; wide because "
        "1-core loopback serving is noisy (default 0.5)",
    )
    parser.add_argument(
        "--campaign-min-uplift",
        type=float,
        default=1.3,
        help="required campaign_large single-worker q/s as a multiple of the "
        "campaign_throughput baseline (default 1.3)",
    )
    parser.add_argument(
        "--campaign-overhead",
        type=float,
        default=1.15,
        help="max parallel-4 wall as a multiple of serial wall for "
        "campaign_large (default 1.15)",
    )
    args = parser.parse_args(argv)

    if not RECORDS_PATH.exists():
        print(f"FAIL: {RECORDS_PATH} missing - run `make bench-perf` first")
        return 1
    current = json.loads(RECORDS_PATH.read_text()).get("benches", {})
    baseline = load_baseline()

    failed = False
    for name in args.benches:
        base = baseline.get(name, {}).get("ops_per_s")
        ops = current.get(name, {}).get("ops_per_s")
        if base is None:
            print(f"SKIP {name}: no baseline ops_per_s recorded")
            continue
        if ops is None:
            print(f"FAIL {name}: not present in {RECORDS_PATH.name}")
            failed = True
            continue
        floor = base * (1.0 - args.max_regression)
        verdict = "FAIL" if ops < floor else "ok"
        print(
            f"{verdict:>4} {name}: {ops:,.1f} ops/s vs baseline {base:,.1f} "
            f"(floor {floor:,.1f}, {ops / base:.2f}x)"
        )
        if ops < floor:
            failed = True

    if not check_worker_curve(current, args.scaling_tolerance):
        failed = True
    if not check_campaign_gate(
        current,
        baseline,
        min_uplift=args.campaign_min_uplift,
        overhead_cap=args.campaign_overhead,
    ):
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
