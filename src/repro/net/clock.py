"""Virtual time.

All timestamps in the simulation are seconds since the experiment epoch.
Experiments pass the time to caches, resolvers and servers as an explicit
``now`` argument, so TTL expiry is exact and reproducible; a world's
:class:`SimClock` holds its start time.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing virtual clock."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds since the epoch."""
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.3f})"
