"""Bounded, deterministic popularity tracking.

The tracker is a *space-saving* top-K sketch (Metwally et al.) over
arbitrary hashable keys — here, ``(qname, qtype)`` pairs.  It admits
every arrival, but holds at most ``capacity`` keys: when full, the key
with the smallest count is evicted and the newcomer inherits that count
as its *error* bound, so ``count - error`` is a guaranteed lower bound
on the key's true arrivals.  Hotness tests use the guaranteed count, so
a one-hit wonder that inherited a large count is never mistaken for a
hot name.

With a ``window_s``, the tracker ages: every window boundary halves all
counts and errors and drops keys that reach zero, so yesterday's hot set
decays out instead of squatting in the sketch forever (exponential decay
with a one-window half-life — the standard sliding-window treatment for
space-saving sketches).  Aging only ever shrinks the tracked set; it
never resurrects an evicted key or promotes a cold one.

Everything is deterministic: ties break by admission order, no RNG, no
wall clock — two trackers fed the same arrival sequence are equal, which
is what the serial-vs-parallel byte-identity contract requires.  The
count structure is a lazy min-heap in the style of the resolver cache's
expiry heap: counts only grow *between agings*, so a popped record whose
count matches the live count *is* the minimum; stale records are
discarded on pop, and :meth:`age` rebuilds the heap wholesale (counts
just shrank, which the lazy invariant cannot absorb incrementally).
"""

from __future__ import annotations

import heapq
from typing import Hashable, Optional

#: Heap compaction threshold, in multiples of capacity.
_HEAP_SLACK = 8


class PopularityTracker:
    """Space-saving top-K arrival counter."""

    def __init__(
        self,
        capacity: int,
        min_hits: int = 2,
        window_s: Optional[float] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, not {capacity}")
        if min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, not {min_hits}")
        if window_s is not None and window_s <= 0:
            raise ValueError(f"window_s must be > 0, not {window_s}")
        self.capacity = capacity
        self.min_hits = min_hits
        #: Aging window; ``None`` = never decay (counts accumulate forever).
        self.window_s = window_s
        self._window_started: Optional[float] = None
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
        self._first_seen: dict[Hashable, float] = {}
        #: Lazy min-heap of (count, seq, key); validated on pop.
        self._heap: list[tuple[int, int, Hashable]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def _push(self, key: Hashable, count: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (count, self._seq, key))
        if len(self._heap) > _HEAP_SLACK * self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live counts, dropping stale records."""
        self._heap = [
            (count, index, key)
            for index, (key, count) in enumerate(self._counts.items())
        ]
        heapq.heapify(self._heap)
        self._seq = len(self._heap)

    def _evict_min(self) -> int:
        """Remove the key with the smallest count; returns that count."""
        while True:
            count, _, key = heapq.heappop(self._heap)
            live = self._counts.get(key)
            if live is None or live != count:
                continue  # stale record (key evicted or count since grown)
            del self._counts[key]
            del self._errors[key]
            del self._first_seen[key]
            return count

    # -- aging ---------------------------------------------------------------
    def age(self, now: float) -> int:
        """Halve every count and error, dropping keys that reach zero.

        Returns the number of keys dropped.  Called automatically from
        :meth:`record` at window boundaries (``window_s``); callable
        directly for trackers aged on an external schedule.  Only ever
        removes or diminishes: a key absent before aging is absent after,
        and no key's guaranteed count grows — so aging can never
        resurrect an evicted key or promote a cold one to hot.
        """
        self._window_started = now
        if not self._counts:
            return 0
        dropped = 0
        for key in list(self._counts):
            count = self._counts[key] // 2
            if count <= 0:
                del self._counts[key]
                del self._errors[key]
                del self._first_seen[key]
                dropped += 1
            else:
                self._counts[key] = count
                self._errors[key] = self._errors[key] // 2
        # Counts just shrank, which the lazy heap's counts-only-grow
        # invariant cannot absorb: rebuild from the survivors.
        self._compact()
        return dropped

    def _maybe_age(self, now: float) -> None:
        if self.window_s is None:
            return
        if self._window_started is None:
            self._window_started = now
        elif now - self._window_started >= self.window_s:
            self.age(now)

    # -- recording -----------------------------------------------------------
    def record(self, key: Hashable, now: float) -> int:
        """Count one arrival of ``key`` at sim time ``now``; returns the
        key's (possibly overestimated) count."""
        self._maybe_age(now)
        count = self._counts.get(key)
        if count is not None:
            count += 1
            self._counts[key] = count
            self._push(key, count)
            return count
        if len(self._counts) >= self.capacity:
            floor = self._evict_min()
        else:
            floor = 0
        count = floor + 1
        self._counts[key] = count
        self._errors[key] = floor
        self._first_seen[key] = now
        self._push(key, count)
        return count

    # -- queries -------------------------------------------------------------
    def count(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def guaranteed_count(self, key: Hashable) -> int:
        """Arrivals provably seen for ``key`` (count minus inherited error)."""
        count = self._counts.get(key)
        if count is None:
            return 0
        return count - self._errors[key]

    def is_hot(self, key: Hashable) -> bool:
        """Whether ``key`` has provably arrived at least ``min_hits`` times."""
        return self.guaranteed_count(key) >= self.min_hits

    def rate(self, key: Hashable, now: float) -> float:
        """Guaranteed arrivals per sim second since the key was admitted."""
        guaranteed = self.guaranteed_count(key)
        if guaranteed <= 0:
            return 0.0
        first = self._first_seen[key]
        return guaranteed / max(now - first, 1.0)

    # -- snapshot / merge ----------------------------------------------------
    def snapshot(self) -> list[tuple[Hashable, int, int, float]]:
        """The tracked set as ``(key, count, error, first_seen)`` rows,
        admission order.  Rows are plain data; callers that need JSON
        encode the keys themselves."""
        return [
            (key, count, self._errors[key], self._first_seen[key])
            for key, count in self._counts.items()
        ]

    def merge(self, rows: list[tuple[Hashable, int, int, float]]) -> None:
        """Fold another tracker's snapshot in: counts and errors add, first
        seen takes the earlier stamp, then the union is trimmed back to
        capacity by evicting minimum counts (deterministically)."""
        for key, count, error, first_seen in rows:
            if key in self._counts:
                self._counts[key] += count
                self._errors[key] += error
                self._first_seen[key] = min(self._first_seen[key], first_seen)
                self._push(key, self._counts[key])
            else:
                self._counts[key] = count
                self._errors[key] = error
                self._first_seen[key] = first_seen
                self._push(key, count)
        while len(self._counts) > self.capacity:
            self._evict_min()

    def clear(self) -> None:
        self._counts.clear()
        self._errors.clear()
        self._first_seen.clear()
        self._heap.clear()
        self._seq = 0
        self._window_started = None
