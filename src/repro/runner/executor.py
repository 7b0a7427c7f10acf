"""The shard execution engine.

``ShardExecutor`` runs a shard function over a shard plan:

- ``parallelism <= 1`` → in-process, one shard at a time (the debugging
  fallback: no pickling, no subprocesses, identical results);
- ``parallelism > 1`` → a :class:`concurrent.futures.ProcessPoolExecutor`
  with ``parallelism`` workers.

Both run through one attempt loop: every shard is submitted, then
awaited in plan order.  Serially the submissions go to an in-process
stand-in for the pool whose futures run the shard when awaited.  The
executor consults an optional :class:`CheckpointStore` (completed shards
load instead of recomputing and new completions are spilled
immediately), gives a failed shard up to :data:`MAX_ATTEMPTS` attempts,
and reports lifecycle transitions to a :class:`ProgressTracker`.
Results are returned in *shard-index order* regardless of completion
order, which is what makes downstream merges reproducible.

A worker crash that breaks the pool (segfault, OOM kill →
:class:`BrokenProcessPool`) counts as a failed attempt of the shard
being awaited, even when another shard's worker died.  The pool is
rebuilt and that shard's retry runs alone on it, so a second break is
its own: no shard is charged for more than one other shard's crash.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
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
    from repro.runner.checkpoint import CheckpointStore

__all__ = ["MAX_ATTEMPTS", "ShardError", "ShardOutcome", "ShardExecutor"]

#: Attempts a shard gets before :class:`ShardError`.  No backoff between
#: them: a shard is a pure function of its inputs, so waiting gains
#: nothing, and a broken pool is rebuilt before the retry anyway.
MAX_ATTEMPTS = 3

#: Per-shard wall-time buckets: 1 ms .. 1 h.  Host-domain telemetry only —
#: wall clocks never enter the deterministic (sim) snapshot.
SHARD_WALL_BUCKETS = log_buckets(0.001, 3600.0, per_decade=2)


class ShardError(RuntimeError):
    """A shard failed :data:`MAX_ATTEMPTS` times."""

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
    """Run one shard under cProfile, dump to ``path``.

    Module-level so it pickles into workers; the stats file is written
    even when the shard raises, so a crashing shard still leaves data.
    """
    import cProfile

    profile = cProfile.Profile()
    try:
        return profile.runcall(fn, shard, **kwargs)
    finally:
        profile.dump_stats(path)


class _Deferred(partial):
    """The in-process pool's future: awaiting its result runs the call."""

    result = partial.__call__


class _InProcessPool:
    """The pool's stand-in for ``parallelism <= 1``: nothing is pickled and
    no process starts.  A submitted call runs only when awaited, so shards
    run in plan order and a retry runs before the next shard."""

    submit = _Deferred


@dataclass
class ShardExecutor:
    """Runs ``fn(shard, **kwargs)`` over a shard plan."""

    parallelism: int = 1
    checkpoint: Optional[CheckpointStore] = None
    tracker: Optional[ProgressTracker] = None
    #: Host-domain execution telemetry lands here when set (wall times,
    #: retries, checkpoint hits); sim-domain metrics come from the shards.
    metrics: Optional[MetricsRegistry] = None
    #: Run once in every worker process before any shard executes (and
    #: once in-process on the serial path, for symmetry), and only when a
    #: shard is left to run.  Campaigns use it to prewarm the per-process
    #: world cache so the first shard a worker receives doesn't pay world
    #: construction.  Must be a module-level callable; ``initargs`` must
    #: pickle.
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
                *[(f"runner.{slot}", COUNTER, slot) for slot in (
                    "shards_completed", "shards_cached", "retries", "failures",
                )],
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
        shard fails :data:`MAX_ATTEMPTS` times; shards that completed
        before the failure remain checkpointed, so a rerun resumes rather
        than recomputes.
        """
        kwargs = kwargs or {}
        if self.tracker is not None:
            self.tracker.shards_total = len(shards)
            self.tracker.start()
        cached, pending = self._split_checkpointed(shards)
        fresh = self._attempt_all(fn, pending, kwargs) if pending else []
        outcomes = sorted(cached + fresh, key=attrgetter("shard.index"))
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

    # -- the attempt loop -----------------------------------------------------
    def _new_pool(self) -> Any:
        if self.parallelism > 1:
            from concurrent.futures.process import ProcessPoolExecutor

            return ProcessPoolExecutor(
                max_workers=self.parallelism,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        if self.initializer is not None:
            self.initializer(*self.initargs)
        return _InProcessPool()

    def _attempt_all(
        self, fn: Callable[..., Any], shards: Sequence[Shard], kwargs: dict[str, Any]
    ) -> list[ShardOutcome]:
        in_process = self.parallelism <= 1
        if in_process:
            broken: Any = ()  # an in-process pool never breaks
        else:
            from concurrent.futures.process import BrokenProcessPool as broken

            # Workers fork from this process (Linux default).  Freezing
            # the parent's GC generations first keeps the children's
            # collector from traversing — and so copy-on-write faulting —
            # every page the parent heap holds at fork time; with a large
            # ResultSet already in memory (serial-vs-parallel comparisons,
            # multi-stage campaigns) that thrash costs ~20% of 4-worker
            # wall time on a 1-core host.  Unfrozen once the pool is done.
            gc.collect()
            gc.freeze()
        outcomes: list[ShardOutcome] = []
        pending: dict[int, Any] = {}
        started: dict[int, float] = {}
        held: list[Shard] = []
        pool = self._new_pool()

        def submit(shard: Shard) -> None:
            started[shard.index] = time.monotonic()
            if self.profile_path is not None:
                pending[shard.index] = pool.submit(
                    _call_profiled,
                    fn,
                    self._shard_profile_path(shard.index),
                    shard,
                    kwargs,
                )
            else:
                pending[shard.index] = pool.submit(fn, shard, **kwargs)

        def rebuild_pool(shard: Shard) -> None:
            # A worker died hard (segfault, OOM kill): the pool is
            # permanently broken and every future still riding on it
            # fails with BrokenProcessPool.  The break is charged to the
            # awaited ``shard`` even when another shard's worker died, so
            # its retry runs alone on a fresh pool, where a break is its
            # own: no shard is charged for more than one other shard's
            # crash.  The rest that had not delivered a result wait in
            # ``held`` until it ends; completed results survive the crash.
            nonlocal pool
            pool.shutdown(wait=False, cancel_futures=True)
            pool = self._new_pool()
            for other in shards:
                future = pending.get(other.index)
                if future is not None and not (
                    future.done() and future.exception() is None
                ):
                    del pending[other.index]
                    held.append(other)
            submit(shard)

        try:
            for shard in shards:
                submit(shard)
            # Await shards in plan order: earlier waits overlap later
            # shards' compute, so this costs nothing in wall time.
            for shard in shards:
                attempt = 0
                while True:
                    attempt += 1
                    future = pending.pop(shard.index)
                    if in_process:
                        # The shard runs inside result(), so its clock
                        # starts now rather than at submission.
                        started[shard.index] = time.monotonic()
                    try:
                        value = future.result()
                        break
                    except Exception as error:  # a crash, or BrokenProcessPool
                        final = attempt >= MAX_ATTEMPTS
                        self._note_failure(shard, attempt, final)
                        if final:
                            raise ShardError(shard, attempt, error) from error
                        if not isinstance(error, broken):
                            try:
                                submit(shard)
                                continue
                            except broken:
                                pass  # the pool broke before the resubmit
                        rebuild_pool(shard)
                outcomes.append(
                    self._record(
                        shard, value, attempt, time.monotonic() - started[shard.index]
                    )
                )
                while held:
                    submit(held.pop(0))
        finally:
            if not in_process:
                # wait=False: shards still running after a ShardError must
                # not hold it up; interpreter exit reaps their processes.
                pool.shutdown(wait=False, cancel_futures=True)
                gc.unfreeze()
        return outcomes
