"""Structured progress telemetry for sharded campaign runs.

The executor reports shard lifecycle transitions to a
:class:`ProgressTracker`; the tracker turns them into immutable
:class:`ProgressEvent` records (shards done/total, simulated queries,
queries/sec, wall time) and hands each one to an optional callback.  The
CLI renders events with :func:`render_event`; tests read the event
stream directly (``tracker.events``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["ProgressEvent", "ProgressTracker", "render_event"]


@dataclass(frozen=True)
class ProgressEvent:
    """One point-in-time snapshot of a running campaign."""

    campaign: str
    #: "start", "shard-done", "shard-retry", "shard-failed", or "done".
    status: str
    shards_done: int
    shards_total: int
    #: Simulated queries accumulated so far (0 when shards don't report).
    queries: int
    #: Wall-clock seconds since the tracker started.
    elapsed: float
    #: Index of the shard this event is about (-1 for campaign-level events).
    shard_index: int = -1
    #: Attempt number for retry/failure events (1-based).
    attempt: int = 0
    #: True when the shard's result was loaded from a checkpoint.
    cached: bool = False
    #: Queries restored from checkpoints (subset of ``queries``).  These
    #: cost no wall time this run, so throughput excludes them — a
    #: resumed campaign must not report inflated q/s.
    cached_queries: int = 0

    @property
    def queries_per_second(self) -> float:
        """Fresh-query throughput over the wall clock so far.

        Checkpoint-restored queries are excluded: they were computed in
        an earlier run, and dividing them by this run's near-zero elapsed
        time would inflate the rate arbitrarily.
        """
        fresh = self.queries - self.cached_queries
        return fresh / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def fraction_done(self) -> float:
        return self.shards_done / self.shards_total if self.shards_total else 1.0


@dataclass
class ProgressTracker:
    """Accumulates shard completions into a stream of progress events."""

    campaign: str = "campaign"
    shards_total: int = 0
    callback: Optional[Callable[[ProgressEvent], None]] = None
    #: Injectable monotonic clock (tests pin it for stable output).
    clock: Callable[[], float] = time.monotonic
    events: list[ProgressEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._started_at = self.clock()
        self._shards_done = 0
        self._queries = 0
        self._cached_queries = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> ProgressEvent:
        return self._emit("start")

    def shard_done(
        self, shard_index: int, queries: int = 0, cached: bool = False
    ) -> ProgressEvent:
        self._shards_done += 1
        self._queries += queries
        if cached:
            self._cached_queries += queries
        return self._emit("shard-done", shard_index=shard_index, cached=cached)

    def shard_retry(self, shard_index: int, attempt: int) -> ProgressEvent:
        return self._emit("shard-retry", shard_index=shard_index, attempt=attempt)

    def shard_failed(self, shard_index: int, attempt: int) -> ProgressEvent:
        return self._emit("shard-failed", shard_index=shard_index, attempt=attempt)

    def done(self) -> ProgressEvent:
        return self._emit("done")

    # -- accessors -----------------------------------------------------------
    @property
    def queries(self) -> int:
        return self._queries

    @property
    def cached_queries(self) -> int:
        return self._cached_queries

    @property
    def elapsed(self) -> float:
        return self.clock() - self._started_at

    def _emit(
        self,
        status: str,
        shard_index: int = -1,
        attempt: int = 0,
        cached: bool = False,
    ) -> ProgressEvent:
        event = ProgressEvent(
            campaign=self.campaign,
            status=status,
            shards_done=self._shards_done,
            shards_total=self.shards_total,
            queries=self._queries,
            elapsed=self.elapsed,
            shard_index=shard_index,
            attempt=attempt,
            cached=cached,
            cached_queries=self._cached_queries,
        )
        self.events.append(event)
        if self.callback is not None:
            self.callback(event)
        return event


def render_event(event: ProgressEvent) -> str:
    """One-line human rendering, e.g. for the CLI's stderr ticker."""
    if event.status == "start":
        return f"[{event.campaign}] starting: {event.shards_total} shards"
    if event.status == "shard-retry":
        return (
            f"[{event.campaign}] shard {event.shard_index} failed "
            f"(attempt {event.attempt}), retrying"
        )
    if event.status == "shard-failed":
        return (
            f"[{event.campaign}] shard {event.shard_index} failed permanently "
            f"after {event.attempt} attempts"
        )
    tag = " (checkpoint)" if event.cached else ""
    cached_note = (
        f" ({event.cached_queries:,} from checkpoints)"
        if event.cached_queries
        else ""
    )
    line = (
        f"[{event.campaign}] {event.shards_done}/{event.shards_total} shards"
        f" · {event.queries:,} queries{cached_note}"
        f" · {event.queries_per_second:,.0f} q/s"
        f" · {event.elapsed:.1f}s"
    )
    if event.status == "shard-done":
        return f"{line}{tag}"
    return f"{line} · done"
