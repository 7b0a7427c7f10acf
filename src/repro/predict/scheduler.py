"""The refresh-ahead scheduler.

Jobs are ``(qname, qtype)`` refreshes pinned to a *due* sim time; a
min-heap orders them and :meth:`RefreshScheduler.pump` executes every
due job through a caller-supplied callback.  Three properties matter:

- **off the client path** — nothing here runs inside a client's
  ``resolve()`` answer; the resolver pumps at the *start* of a call (and
  the live frontend pumps from a background task), so refresh latency is
  never charged to the triggering client;
- **storm-safe** — a token bucket caps executed refreshes at
  ``max_refresh_per_s`` (depth ``refresh_burst``); jobs arriving beyond
  the budget are *dropped and counted*, not queued, so a TTL cliff or a
  fault-injected outage can never turn the scheduler into an amplifier.
  Failed refreshes additionally back the key off exponentially, on top
  of the flat timeout-and-retry ladder the fabric already applies per
  query;
- **deterministic** — jobs execute in (due, submission) order with
  ``now`` equal to their due time, so a pump at sim time 400 executing a
  job due at 310 behaves exactly as if it had run at 310 (every cache
  and network call takes an explicit timestamp).  Serial and sharded
  campaigns therefore see identical refresh traffic.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, TYPE_CHECKING

from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.metrics.registry import COUNTER, HISTOGRAM, Histogram, log_buckets

if TYPE_CHECKING:
    from repro.metrics import MetricsRegistry

#: A predictive resolver's refresh budget: scheduler-issued refreshes per
#: sim second, and how many may burst back-to-back.  The budget is what
#: keeps refresh-ahead from storming authoritatives.
MAX_REFRESH_PER_S = 10.0
REFRESH_BURST = 20
#: First per-key backoff after a failed refresh, doubling per failure up
#: to the cap.
FAILURE_BACKOFF_S = 30.0
FAILURE_BACKOFF_CAP_S = 3600.0

#: Refresh lead time (seconds before expiry) buckets: 0.1 s .. 100 000 s.
LEAD_BUCKETS_S = log_buckets(0.1, 100_000.0, per_decade=2)

#: A refresh callback: (qname, qtype, sim_now) -> success.
RefreshFn = Callable[[Name, RdataType, float], bool]

JobKey = tuple[Name, RdataType]


class RefreshScheduler:
    """Budgeted, deduplicated refresh jobs on the sim timeline."""

    def __init__(
        self,
        refresh: RefreshFn,
        max_refresh_per_s: Optional[float] = None,
        refresh_burst: int = 1,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """``max_refresh_per_s``: ``None`` means unbudgeted (the plain
        on-hit prefetch archetype); ``0`` suppresses every job."""
        if refresh_burst < 1:
            raise ValueError(f"refresh_burst must be >= 1, not {refresh_burst}")
        self._refresh = refresh
        self.max_refresh_per_s = max_refresh_per_s
        self.refresh_burst = refresh_burst
        #: (due, seq, key); validated against ``_pending`` on pop.
        self._heap: list[tuple[float, int, JobKey]] = []
        #: key -> (due, kind, expires_at): the one live job per key.
        self._pending: dict[JobKey, tuple[float, str, Optional[float]]] = {}
        self._seq = 0
        self._failures: dict[JobKey, int] = {}
        self._blocked_until: dict[JobKey, float] = {}
        self._tokens = float(refresh_burst)
        self._token_time: Optional[float] = None
        self.refreshes = self.revalidations = 0
        self.refresh_suppressed = self.refresh_failures = 0
        #: Seconds before expiry each refresh ran.
        self.refresh_lead_s = Histogram("predict.refresh_lead_s", LEAD_BUCKETS_S)
        if metrics is not None:
            metrics.collect(self, (
                *((f"predict.{slot}", COUNTER, slot) for slot in (
                    "refreshes", "revalidations", "refresh_suppressed", "refresh_failures",
                )),
                ("predict.refresh_lead_s", HISTOGRAM, "refresh_lead_s"),
            ))

    def __len__(self) -> int:
        return len(self._pending)

    # -- submission ----------------------------------------------------------
    def schedule(
        self,
        qname: Name,
        qtype: RdataType,
        due: float,
        expires_at: Optional[float] = None,
        kind: str = "refresh",
    ) -> bool:
        """Submit a refresh for ``(qname, qtype)`` at sim time ``due``.

        One job per key: a resubmission only moves an existing job
        *earlier*.  Keys in failure backoff have their due time clamped
        forward to the backoff deadline instead of being refused, so a
        flapping upstream is retried — just not hammered.  Returns
        whether the pending set changed.
        """
        key: JobKey = (qname, qtype)
        blocked = self._blocked_until.get(key)
        if blocked is not None and due < blocked:
            due = blocked
        existing = self._pending.get(key)
        if existing is not None and existing[0] <= due:
            return False
        self._pending[key] = (due, kind, expires_at)
        self._seq += 1
        heapq.heappush(self._heap, (due, self._seq, key))
        return True

    # -- execution -----------------------------------------------------------
    def _refill(self, now: float) -> None:
        if self.max_refresh_per_s is None:
            return
        if self._token_time is None:
            self._token_time = now
            return
        elapsed = now - self._token_time
        if elapsed > 0:
            self._tokens = min(
                float(self.refresh_burst),
                self._tokens + elapsed * self.max_refresh_per_s,
            )
            self._token_time = now

    def pump(self, now: float) -> int:
        """Execute every job due at or before ``now``; returns how many ran.

        Jobs run back-dated to their due time, in (due, submission)
        order.  Over-budget jobs are dropped (and counted) — the next
        client hit or expiry-feed pass will resubmit if the name is
        still hot.
        """
        executed = 0
        heap = self._heap
        while heap and heap[0][0] <= now:
            due, _, key = heapq.heappop(heap)
            pending = self._pending.get(key)
            if pending is None or pending[0] != due:
                continue  # superseded by an earlier due time
            del self._pending[key]
            _, kind, expires_at = pending
            self._refill(due)
            if self.max_refresh_per_s is not None:
                if self._tokens < 1.0:
                    self.refresh_suppressed += 1
                    continue
                self._tokens -= 1.0
            ok = self._refresh(key[0], key[1], due)
            executed += 1
            if kind == "revalidate":
                self.revalidations += 1
            else:
                self.refreshes += 1
            if expires_at is not None:
                self.refresh_lead_s.observe(max(0.0, expires_at - due))
            if ok:
                self._failures.pop(key, None)
                self._blocked_until.pop(key, None)
            else:
                failures = self._failures.get(key, 0) + 1
                self._failures[key] = failures
                backoff = min(
                    FAILURE_BACKOFF_S * (2.0 ** (failures - 1)), FAILURE_BACKOFF_CAP_S
                )
                self._blocked_until[key] = due + backoff
                self.refresh_failures += 1
        return executed

    def clear(self) -> None:
        """Forget every job and all backoff state (resolver restart)."""
        self._heap.clear()
        self._pending.clear()
        self._failures.clear()
        self._blocked_until.clear()
        self._tokens = float(self.refresh_burst)
        self._token_time = None
