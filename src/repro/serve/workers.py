"""Multi-core serving via SO_REUSEPORT process sharding.

The sim stack under the frontend is single-threaded by contract (that is
what makes campaign metrics byte-identical), so one event loop can use at
most one core.  ``run_workers`` forks N processes that each build a
*private* world + resolver + cache and bind the same (host, port) with
SO_REUSEPORT; the kernel then hashes clients across workers the way
anycast hashes them across sites.  Each worker writes its own metrics
snapshot on exit and the parent merges them — the same
``merge_snapshots`` discipline the parallel campaign runner uses.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
from typing import Optional

from repro.metrics import MetricsSnapshot, merge_snapshots
from repro.serve.config import ServeConfig, build_frontend


def worker_metrics_path(metrics_path: str, worker_index: int) -> str:
    return f"{metrics_path}.worker{worker_index}"


def run_worker(config: ServeConfig, worker_index: int = 0) -> None:
    """Run one serving worker until SIGINT/SIGTERM, then drain and export.

    This is the whole life of a `repro serve` process: build the world,
    serve, and leave a metrics snapshot behind.
    """
    import asyncio

    from repro.serve.server import ServeServer

    frontend, registry = build_frontend(config, worker_index=worker_index)
    server = ServeServer(
        frontend,
        host=config.host,
        port=config.port,
        max_inflight=config.max_inflight,
        reuse_port=config.workers > 1,
    )

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        port = await server.start()
        # The ready lines are a contract: tests, the smoke job, and the
        # bench all scrape the bound port from them.  Several workers
        # share this pipe, so each line goes out as ONE write (atomic on
        # POSIX pipes below PIPE_BUF) — print()'s separate text/newline
        # writes can tear, merging two workers' ready lines into one.
        sys.stdout.write(
            f"repro-serve: worker {worker_index} listening on "
            f"{config.host}:{port} (udp+tcp)\n"
        )
        sys.stdout.write(
            f"repro-serve: worker {worker_index} fast path: "
            f"memo={'on' if frontend.memo is not None else 'off'} "
            f"prewarm={config.prewarm}\n"
        )
        sys.stdout.flush()
        await stopping.wait()
        await server.stop()

    asyncio.run(main())

    if config.metrics_path:
        path = config.metrics_path
        if config.workers > 1:
            path = worker_metrics_path(config.metrics_path, worker_index)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(registry.snapshot().to_json(include_host=True))


def _worker_entry(config: ServeConfig, worker_index: int) -> None:
    # Children inherit the parent's signal disposition; re-raise defaults
    # so asyncio's handlers (installed in run_worker) are the only ones.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        run_worker(config, worker_index)
    except KeyboardInterrupt:
        sys.exit(0)


def run_workers(config: ServeConfig) -> int:
    """Serve with ``config.workers`` processes; returns an exit status.

    The parent is a pure supervisor: it forwards SIGINT/SIGTERM to the
    children, waits, then merges their metrics snapshots into
    ``config.metrics_path``.
    """
    if config.workers == 1:
        run_worker(config, worker_index=0)
        return 0

    context = multiprocessing.get_context("spawn")
    children = [
        context.Process(target=_worker_entry, args=(config, index), daemon=False)
        for index in range(config.workers)
    ]
    for child in children:
        child.start()

    def forward(signum, _frame) -> None:
        for child in children:
            if child.pid is not None and child.is_alive():
                os.kill(child.pid, signum)

    previous = {
        signum: signal.signal(signum, forward)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        for child in children:
            child.join()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    status = max((child.exitcode or 0) for child in children)
    if config.metrics_path:
        merge_worker_metrics(config)
    return status


def merge_worker_metrics(config: ServeConfig) -> Optional[MetricsSnapshot]:
    """Merge per-worker snapshot files into ``config.metrics_path``."""
    if not config.metrics_path:
        return None
    parts = []
    for index in range(config.workers):
        path = worker_metrics_path(config.metrics_path, index)
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as stream:
            parts.append(MetricsSnapshot.from_payload(json.load(stream)))
    if not parts:
        return None
    merged = merge_snapshots(parts)
    with open(config.metrics_path, "w", encoding="utf-8") as stream:
        stream.write(merged.to_json(include_host=True))
    return merged
