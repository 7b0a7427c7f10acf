"""Bounded, deterministic popularity tracking.

The tracker is a *space-saving* top-K sketch (Metwally et al.) over
arbitrary hashable keys — here, ``(qname, qtype)`` pairs.  It admits
every arrival, but holds at most ``capacity`` keys: when full, the key
with the smallest count is evicted and the newcomer inherits that count
as its *error* bound, so ``count - error`` is a guaranteed lower bound
on the key's true arrivals.  Hotness tests use the guaranteed count, so
a one-hit wonder that inherited a large count is never mistaken for a
hot name.

Everything is deterministic: ties break by admission order, no RNG, no
wall clock — two trackers fed the same arrival sequence are equal, which
is what the serial-vs-parallel byte-identity contract requires.  The
count structure is a lazy min-heap in the style of the resolver cache's
expiry heap: counts only grow, so a popped record whose count matches
the live count *is* the minimum; stale records are discarded on pop.
"""

from __future__ import annotations

import heapq
from typing import Hashable

#: A predictive resolver's tracker capacity: how many (qname, qtype)
#: keys are counted.
TRACK_TOP_K = 256
#: Guaranteed arrivals before a key counts as hot (refresh-ahead eligible).
MIN_HITS = 2

#: Heap compaction threshold, in multiples of capacity.
_HEAP_SLACK = 8


class PopularityTracker:
    """Space-saving top-K arrival counter."""

    def __init__(self, capacity: int, min_hits: int = MIN_HITS) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, not {capacity}")
        if min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, not {min_hits}")
        self.capacity = capacity
        self.min_hits = min_hits
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
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
            return count

    # -- recording -----------------------------------------------------------
    def record(self, key: Hashable) -> int:
        """Count one arrival of ``key``; returns the key's (possibly
        overestimated) count."""
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

    def clear(self) -> None:
        self._counts.clear()
        self._errors.clear()
        self._heap.clear()
        self._seq = 0
