"""Wall-clock → sim-clock bridging.

The resolver, cache, and authoritative stack all live on a virtual
timeline: TTLs age, caches expire and SOA timers run against the ``now``
passed into every call.  To serve that stack live, the frontend maps the
host's monotonic clock onto the simulated one — a query arriving ``t``
wall seconds after startup resolves at sim time ``sim_start + t *
time_scale``, so a 300 s TTL record really is gone after five minutes of
wall time (or after 3 s with ``time_scale=100``, which is how the tests
exercise expiry without sleeping).
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class WallClockBridge:
    """Maps monotonic wall time onto the simulated timeline.

    ``wall_clock`` is injectable so tests can drive sim time by hand;
    production uses :func:`time.monotonic`, which never steps backwards
    (NTP slews and daylight-saving jumps must not un-expire cache
    entries).
    """

    def __init__(
        self,
        sim_start: float = 0.0,
        time_scale: float = 1.0,
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time scale must be positive, not {time_scale}")
        if sim_start < 0:
            raise ValueError(f"sim epoch cannot be negative ({sim_start})")
        self.sim_start = float(sim_start)
        self.time_scale = float(time_scale)
        self.wall_clock = wall_clock if wall_clock is not None else time.monotonic
        self.wall_epoch = self.wall_clock()
        # The sim clock must never run backwards even if the injected wall
        # clock misbehaves; remember the high-water mark.
        self.high_water = self.sim_start

    def now(self) -> float:
        """Current position on the simulated timeline.  The frontend's
        memo-hit path reads these same fields inline, in this order."""
        elapsed = self.wall_clock() - self.wall_epoch
        sim_now = self.sim_start + elapsed * self.time_scale
        if sim_now > self.high_water:
            self.high_water = sim_now
        return self.high_water

    def wall_elapsed(self) -> float:
        """Wall seconds since the bridge was created."""
        return self.wall_clock() - self.wall_epoch
