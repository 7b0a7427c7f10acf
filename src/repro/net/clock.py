"""Virtual time.

All timestamps in the simulation are seconds since the experiment epoch,
held in a :class:`SimClock` that only the experiment driver advances.
Caches, logs and measurement results all read the same clock, so TTL
expiry is exact and reproducible.
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

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative {seconds}")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.3f})"
