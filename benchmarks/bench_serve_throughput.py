"""End-to-end serving throughput: loopback `repro serve` + loadgen.

Not a paper artifact: this is the whole-stack wall-clock number the perf
trajectory was missing — real sockets, real wire codec, the resolver and
cache behind them.  Each bench boots a server subprocess (the default
fast path: response memo on, caches prewarmed), drives it
with the closed-loop generator at fixed concurrency (so the achieved
rate *is* the capacity), and files qps plus p50/p99 latency into
``BENCH_perf.json``.

The generator runs with ``parse_responses=False`` — the server is the
thing being measured, so the client reads rcodes straight from the
header instead of running the full decoder.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time

import pytest

from benchmarks.perf_records import record_perf
from repro.loadgen.client import LoadgenConfig, run_loadgen

#: Closed-loop offered concurrency; enough to saturate one worker.
CONCURRENCY = 16
DURATION_S = 2.0
#: Zipf population; the server prewarms the same names so the measured
#: window starts hot instead of charging cold resolutions to it.
POPULATION = 200


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(port: int, workers: int, extra_args: tuple = ()) -> subprocess.Popen:
    """Boot `repro serve` and wait for every worker's ready line.

    Reads are deadline-bounded through a selector — a wedged worker
    fails the bench in 60 s instead of hanging the whole session on a
    blocking readline.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--world", "nl", "--port", str(port), "--workers", str(workers),
            "--prewarm", str(POPULATION), *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + 60.0
    buffered = ""
    try:
        # Count ready markers over the whole accumulated buffer, not per
        # line: N workers share one pipe and their writes may interleave.
        while buffered.count("listening on") < workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                raise RuntimeError("serve did not come up in 60 s")
            if proc.poll() is not None:
                raise RuntimeError(f"serve exited early (rc={proc.returncode})")
            if not selector.select(timeout=min(remaining, 0.5)):
                continue
            chunk = os.read(proc.stdout.fileno(), 4096).decode(errors="replace")
            if not chunk:
                raise RuntimeError(f"serve closed stdout early (rc={proc.poll()})")
            buffered += chunk
    finally:
        selector.close()
    return proc


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()


def measure_capacity(workers: int, sockets: int = 1, extra_args: tuple = ()) -> dict:
    port = free_port()
    proc = start_server(port, workers, extra_args)
    try:
        # Closed-loop at fixed concurrency: achieved qps == capacity.
        report = run_loadgen(
            LoadgenConfig(
                port=port,
                mode="closed",
                concurrency=CONCURRENCY,
                duration_s=DURATION_S,
                population=POPULATION,
                seed=20191021,
                sockets=sockets,
                parse_responses=False,
            )
        )
    finally:
        stop_server(proc)
    assert report.received > 0
    assert report.parse_errors == 0
    latency = report.latency
    return {
        "workers": workers,
        "ops_per_s": round(report.received / report.wall_s, 1),
        "p50_ms": round(latency.median, 3),
        "p99_ms": round(latency.p99, 3),
        "loss_rate": round(report.loss_rate, 4),
        "concurrency": CONCURRENCY,
        "sockets": sockets,
        "cpus": os.cpu_count() or 1,
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_serve_throughput(benchmark, workers):
    if workers > 1 and not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("SO_REUSEPORT unavailable on this platform")
    sockets = 1 if workers == 1 else 8 * workers
    result = benchmark.pedantic(
        measure_capacity, args=(workers, sockets), rounds=1, iterations=1
    )
    record_perf(f"serve_throughput_w{workers}", **result)
    print(
        f"\nserve throughput ({workers} worker{'s' if workers > 1 else ''}): "
        f"{result['ops_per_s']} qps, p50 {result['p50_ms']} ms, "
        f"p99 {result['p99_ms']} ms"
    )


def test_serve_throughput_fast_path_off(benchmark):
    """The ablation: same load with the response memo disabled.

    Filed alongside the default number so the fast path's contribution
    stays visible in the perf trajectory (and a regression that only
    shows with the path off still has a record to show up in).
    """
    result = benchmark.pedantic(
        measure_capacity,
        args=(1, 1, ("--no-memo",)),
        rounds=1,
        iterations=1,
    )
    record_perf("serve_throughput_w1_slowpath", **result)
    print(f"\nserve throughput (fast path off): {result['ops_per_s']} qps")
