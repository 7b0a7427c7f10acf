"""The shard execution engine.

``ShardExecutor`` runs a picklable shard function over a shard plan:

- ``parallelism <= 1`` → serial in-process execution (the debugging
  fallback: no pickling, no subprocesses, identical results);
- ``parallelism > 1`` → a :class:`concurrent.futures.ProcessPoolExecutor`
  with ``parallelism`` workers.

Either way the executor consults an optional :class:`CheckpointStore`
(completed shards load instead of recomputing and new completions are
spilled immediately), retries crashed shards with exponential backoff,
and reports lifecycle transitions to a :class:`ProgressTracker`.
Results are returned in *shard-index order* regardless of completion
order, which is what makes downstream merges reproducible.

The per-shard ``timeout`` bounds each attempt's wall time, measured
from submission — which in pool mode includes any time spent queued
for a free worker, so size it generously when shards outnumber
workers.  In pool mode an attempt that exceeds it counts as a
failed attempt and is resubmitted; a worker crash that breaks the pool
(segfault, OOM kill → :class:`BrokenProcessPool`) also counts as a
failed attempt, and the pool is rebuilt before the retry.  In serial
mode a running shard cannot be interrupted, so the timeout is checked
after the attempt returns — a too-slow shard still counts as failed.
A truly hung worker keeps its (abandoned) process until interpreter
exit — acceptable for simulation workloads, where a "hang" is a
runaway simulation rather than blocked I/O.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.metrics.registry import (
    COUNTER,
    HISTOGRAM,
    HOST,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.runner.codec import query_count as _query_count
from repro.runner.progress import ProgressTracker
from repro.runner.shard import Shard

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.runner.checkpoint import CheckpointStore

__all__ = ["RetryPolicy", "ShardError", "ShardOutcome", "ShardExecutor"]

#: Per-shard wall-time buckets: 1 ms .. 1 h.  Host-domain telemetry only —
#: wall clocks never enter the deterministic (sim) snapshot.
SHARD_WALL_BUCKETS = log_buckets(0.001, 3600.0, per_decade=2)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for crashed shards."""

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        return self.backoff * (self.backoff_factor ** (attempt - 1))


class ShardError(RuntimeError):
    """A shard exhausted its retry budget."""

    def __init__(self, shard: Shard, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard.index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


@dataclass
class ShardOutcome:
    """One shard's result plus execution bookkeeping."""

    shard: Shard
    value: Any
    attempts: int
    #: True when the value came from a checkpoint, not a fresh run.
    cached: bool = False
    wall_seconds: float = 0.0


def _call_profiled(
    fn: Callable[..., Any], path: str, shard: Shard, kwargs: dict[str, Any]
) -> Any:
    """Pool-side wrapper: run one shard under cProfile, dump to ``path``.

    Module-level so it pickles into workers; the stats file is written
    even when the shard raises, so a crashing shard still leaves data.
    """
    import cProfile

    profile = cProfile.Profile()
    try:
        return profile.runcall(fn, shard, **kwargs)
    finally:
        profile.dump_stats(path)


@dataclass
class ShardExecutor:
    """Runs ``fn(shard, **kwargs)`` over a shard plan."""

    parallelism: int = 1
    timeout: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint: Optional[CheckpointStore] = None
    tracker: Optional[ProgressTracker] = None
    #: Host-domain execution telemetry lands here when set (wall times,
    #: retries, checkpoint hits); sim-domain metrics come from the shards.
    metrics: Optional[MetricsRegistry] = None
    #: Injectable sleep, so tests can pin backoff waits.
    sleep: Callable[[float], None] = time.sleep
    #: Run once in every worker process before any shard executes (and
    #: once in-process on the serial path, for symmetry).  Campaigns use
    #: it to prewarm the per-process world cache so the first shard a
    #: worker receives doesn't pay world construction.  Must be a
    #: module-level callable; ``initargs`` must pickle.
    initializer: Optional[Callable[..., None]] = None
    initargs: tuple = ()
    #: When set, each shard attempt runs under cProfile and dumps to
    #: ``f"{profile_path}.shard-NNNN"`` (per attempt; the last attempt
    #: wins).  Works in both pool and serial modes — ``repro run
    #: --profile`` prefers a single whole-campaign profile when serial.
    profile_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.shards_completed = self.shards_cached = self.retries = self.failures = 0
        self.shard_wall = Histogram("runner.shard_wall_seconds", SHARD_WALL_BUCKETS, HOST)
        if self.metrics is not None:
            self.metrics.collect(self, (
                *((f"runner.{slot}", COUNTER, slot) for slot in (
                    "shards_completed", "shards_cached", "retries", "failures",
                )),
                ("runner.shard_wall_seconds", HISTOGRAM, "shard_wall"),
            ), HOST)

    def run(
        self,
        fn: Callable[..., Any],
        shards: Sequence[Shard],
        kwargs: Optional[dict[str, Any]] = None,
    ) -> list[ShardOutcome]:
        """Execute every shard; returns outcomes sorted by shard index.

        ``fn`` must be a module-level callable and ``kwargs`` picklable
        when ``parallelism > 1``.  Raises :class:`ShardError` once any
        shard exhausts :class:`RetryPolicy.max_attempts`; shards that
        completed before the failure remain checkpointed, so a rerun
        resumes rather than recomputes.
        """
        kwargs = kwargs or {}
        if self.tracker is not None:
            self.tracker.shards_total = len(shards)
            self.tracker.start()
        cached, pending = self._split_checkpointed(shards)
        if self.parallelism <= 1:
            fresh = self._run_serial(fn, pending, kwargs)
        else:
            fresh = self._run_pool(fn, pending, kwargs)
        outcomes = sorted(cached + fresh, key=lambda o: o.shard.index)
        if self.tracker is not None:
            self.tracker.done()
        return outcomes

    # -- checkpoint handling -------------------------------------------------
    def _split_checkpointed(
        self, shards: Sequence[Shard]
    ) -> tuple[list[ShardOutcome], list[Shard]]:
        cached: list[ShardOutcome] = []
        pending: list[Shard] = []
        for shard in shards:
            if self.checkpoint is not None and self.checkpoint.has(shard.index):
                value = self.checkpoint.load(shard.index)
                cached.append(
                    ShardOutcome(shard=shard, value=value, attempts=0, cached=True)
                )
                self.shards_cached += 1
                if self.tracker is not None:
                    self.tracker.shard_done(
                        shard.index, queries=_query_count(value), cached=True
                    )
            else:
                pending.append(shard)
        return cached, pending

    def _record(self, shard: Shard, value: Any, attempts: int, wall: float) -> ShardOutcome:
        if self.checkpoint is not None:
            self.checkpoint.save(shard.index, value)
        self.shards_completed += 1
        self.shard_wall.observe(wall)
        if self.tracker is not None:
            self.tracker.shard_done(shard.index, queries=_query_count(value))
        return ShardOutcome(
            shard=shard, value=value, attempts=attempts, wall_seconds=wall
        )

    def _note_failure(self, shard: Shard, attempt: int, final: bool) -> None:
        if final:
            self.failures += 1
        else:
            self.retries += 1
        if self.tracker is None:
            return
        if final:
            self.tracker.shard_failed(shard.index, attempt)
        else:
            self.tracker.shard_retry(shard.index, attempt)

    def _shard_profile_path(self, index: int) -> str:
        return f"{self.profile_path}.shard-{index:04d}"

    # -- serial fallback -----------------------------------------------------
    def _run_serial(
        self, fn: Callable[..., Any], shards: Sequence[Shard], kwargs: dict[str, Any]
    ) -> list[ShardOutcome]:
        if shards and self.initializer is not None:
            self.initializer(*self.initargs)
        outcomes: list[ShardOutcome] = []
        for shard in shards:
            attempt = 0
            while True:
                attempt += 1
                started = time.monotonic()
                try:
                    if self.profile_path is not None:
                        value = _call_profiled(
                            fn, self._shard_profile_path(shard.index), shard, kwargs
                        )
                    else:
                        value = fn(shard, **kwargs)
                    elapsed = time.monotonic() - started
                    if self.timeout is not None and elapsed > self.timeout:
                        # Serial mode can't interrupt a running shard, so
                        # the budget is checked after the fact; the
                        # attempt still counts as failed, matching pool
                        # mode's per-attempt timeout.
                        raise TimeoutError(
                            f"shard {shard.index} ran {elapsed:.3f}s, "
                            f"over the {self.timeout}s per-shard timeout"
                        )
                except Exception as error:
                    final = attempt >= self.retry.max_attempts
                    self._note_failure(shard, attempt, final)
                    if final:
                        raise ShardError(shard, attempt, error) from error
                    self.sleep(self.retry.delay(attempt))
                    continue
                outcomes.append(
                    self._record(shard, value, attempt, time.monotonic() - started)
                )
                break
        return outcomes

    # -- process pool --------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures.process import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.parallelism,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def _run_pool(
        self, fn: Callable[..., Any], shards: Sequence[Shard], kwargs: dict[str, Any]
    ) -> list[ShardOutcome]:
        import gc
        from concurrent.futures.process import BrokenProcessPool

        # Workers fork from this process (Linux default).  Freezing the
        # parent's GC generations first keeps the children's collector
        # from traversing — and so copy-on-write faulting — every page
        # the parent heap holds at fork time; with a large ResultSet
        # already in memory (serial-vs-parallel comparisons, multi-stage
        # campaigns) that thrash costs ~20% of 4-worker wall time on a
        # 1-core host.  Unfrozen once the pool is done.
        gc.collect()
        gc.freeze()
        outcomes: list[ShardOutcome] = []
        attempts = {shard.index: 0 for shard in shards}
        by_index = {shard.index: shard for shard in shards}
        pending: dict[int, Future] = {}
        started: dict[int, float] = {}
        pool = self._new_pool()

        def submit(index: int) -> None:
            started[index] = time.monotonic()
            if self.profile_path is not None:
                pending[index] = pool.submit(
                    _call_profiled,
                    fn,
                    self._shard_profile_path(index),
                    by_index[index],
                    kwargs,
                )
            else:
                pending[index] = pool.submit(fn, by_index[index], **kwargs)

        def rebuild_pool() -> None:
            # A worker died hard (segfault, OOM kill): the pool is
            # permanently broken and every future still riding on it
            # fails with BrokenProcessPool.  Replace the pool and
            # resubmit every shard that hadn't already delivered a
            # result; completed results survive the crash.
            nonlocal pool
            pool.shutdown(wait=False, cancel_futures=True)
            pool = self._new_pool()
            for index, future in list(pending.items()):
                if future.done() and future.exception() is None:
                    continue
                submit(index)

        try:
            for shard in shards:
                submit(shard.index)
            while pending:
                # Await shards in index order: earlier waits overlap later
                # shards' compute, so this costs nothing in wall time.
                index = min(pending)
                future = pending.pop(index)
                shard = by_index[index]
                attempts[index] += 1
                wait = None
                if self.timeout is not None:
                    # The attempt's clock starts at submission, not when
                    # this loop gets around to awaiting its future.
                    wait = max(
                        0.0, self.timeout - (time.monotonic() - started[index])
                    )
                try:
                    value = future.result(timeout=wait)
                except Exception as error:  # crash, BrokenProcessPool, timeout
                    future.cancel()
                    final = attempts[index] >= self.retry.max_attempts
                    self._note_failure(shard, attempts[index], final)
                    if final:
                        for other in pending.values():
                            other.cancel()
                        raise ShardError(shard, attempts[index], error) from error
                    self.sleep(self.retry.delay(attempts[index]))
                    if isinstance(error, BrokenProcessPool):
                        pending[index] = future  # rebuild resubmits it
                        rebuild_pool()
                    else:
                        try:
                            submit(index)
                        except BrokenProcessPool:
                            # The pool broke between the failure and the
                            # resubmit; recover the same way.
                            pending[index] = future
                            rebuild_pool()
                    continue
                outcomes.append(
                    self._record(
                        shard,
                        value,
                        attempts[index],
                        time.monotonic() - started[index],
                    )
                )
        finally:
            # wait=False: a hung worker must not stall shutdown (the
            # abandoned process is reaped at interpreter exit).
            pool.shutdown(wait=False, cancel_futures=True)
            gc.unfreeze()
        return outcomes
