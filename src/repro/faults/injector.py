"""The runtime that applies a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` is attached per :class:`~repro.net.transport.Network`
(via ``network.attach_faults``); the fabric, the authoritative servers and
the recursive resolvers then consult it at well-defined hook points:

- :meth:`transmission_fate` — per transmission, before delivery: loss,
  blackholes, outages, storms and extra delay;
- :meth:`pick_site` — per anycast delivery: reroute around down sites
  (or drop, if no site survives);
- :meth:`intercept_server` — at the server, before the zone answers:
  SERVFAIL, truncation, rate-limit slips;
- :meth:`take_restart` — at the resolver, per client query: one-shot
  cache-wipe restarts;
- :meth:`take_record_changes` — at the world, per probe tick: one-shot
  record renumbering events (the §4.2 schedule both polling and push
  scenarios share).

Every probabilistic choice draws from one :class:`random.Random` seeded by
:func:`~repro.faults.plan.derive_fault_seed`, and all bookkeeping is keyed
to the virtual clock, so the injector is a pure function of
``(plan, seed, traffic)`` — replaying a checkpointed campaign replays the
faults exactly.

Observability rides the sim metrics domain:

- ``faults.injected{kind}`` — transmissions/queries a window altered;
- ``faults.suppressed{kind}`` — events a window *covered* but left
  unchanged (a loss draw that missed, an under-budget rate-limit query);
- ``faults.recovered{kind}`` — windows that saw a successful delivery
  after ending, i.e. the service healed;
- ``faults.time_to_recovery_s`` — how long after each window's end the
  first successful delivery happened (serve-stale and retries make this
  spread: the histogram is the paper's "attack aftermath" view).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Optional

from repro.faults.plan import (
    SERVER_KINDS,
    FaultPlan,
    FaultSpec,
    derive_fault_seed,
)
from repro.metrics.registry import HISTOGRAM, LABELED_COUNTER, Histogram, log_buckets

if TYPE_CHECKING:
    from repro.dns.message import Message
    from repro.metrics import MetricsRegistry
    from repro.net.latency import LatencyModel
    from repro.net.topology import Endpoint
    from repro.net.transport import Network

#: Time-to-recovery buckets: 100 ms .. ~28 h, two per decade.  Fixed at
#: module level so shard histograms merge exactly.
TTR_BUCKETS_S = log_buckets(0.1, 100_000.0, per_decade=2)

#: Kinds whose end-of-window can be confirmed by a later delivery.
_RECOVERABLE_KINDS = frozenset(
    {
        "loss",
        "blackhole",
        "server_outage",
        "servfail",
        "truncate",
        "ratelimit",
        "anycast_site_down",
        "upstream_storm",
    }
)


class _FaultState:
    """Mutable per-spec bookkeeping (the spec itself stays frozen)."""

    __slots__ = ("spec", "impacted", "pending", "fired", "bucket", "bucket_count")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        #: Whether this window ever altered behaviour (gates recovery).
        self.impacted = False
        #: Whether the state sits in the injector's recovery watchlist.
        self.pending = False
        #: resolver_restart: addresses that already took their restart.
        self.fired: set[str] = set()
        #: ratelimit: the current one-second accounting bucket.
        self.bucket = -1
        self.bucket_count = 0


class FaultTally:
    """Fault events by kind, counted for one registry (fresh per attach)."""

    def __init__(self) -> None:
        self.injected, self.suppressed, self.recovered = (defaultdict(int) for _ in range(3))
        self.time_to_recovery = Histogram("faults.time_to_recovery_s", TTR_BUCKETS_S)


def _endpoint_matches(endpoint: "Endpoint", ident: str) -> bool:
    """A site identifier may be the endpoint's address or its name."""
    return endpoint.address == ident or (endpoint.name or "") == ident


class FaultInjector:
    """Applies one plan to one simulated network."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(derive_fault_seed(plan.seed, seed))
        states = [_FaultState(spec) for spec in plan.faults]
        self._transport = [
            s for s in states
            if s.spec.kind in ("loss", "delay", "blackhole", "server_outage",
                               "upstream_storm")
        ]
        self._server = [s for s in states if s.spec.kind in SERVER_KINDS]
        self._sites = [s for s in states if s.spec.kind == "anycast_site_down"]
        self._restarts = [s for s in states if s.spec.kind == "resolver_restart"]
        self._changes = [s for s in states if s.spec.kind == "record_change"]
        self._watchlist: list[_FaultState] = []
        self.tally = FaultTally()

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan.name or 'unnamed'}, {len(self.plan)} faults)"

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Count fault events into a fresh :class:`FaultTally` ``registry`` collects."""
        self.tally = FaultTally()
        registry.collect(self.tally, (
            *((f"faults.{slot}", LABELED_COUNTER, slot) for slot in (
                "injected", "suppressed", "recovered",
            )),
            ("faults.time_to_recovery_s", HISTOGRAM, "time_to_recovery"),
        ))

    # ------------------------------------------------------------- accounting
    def _inject(self, state: _FaultState) -> None:
        self.tally.injected[state.spec.kind] += 1
        state.impacted = True
        if (
            not state.pending
            and state.spec.kind in _RECOVERABLE_KINDS
            and state.spec.duration > 0.0
        ):
            state.pending = True
            self._watchlist.append(state)

    def _suppress(self, state: _FaultState) -> None:
        self.tally.suppressed[state.spec.kind] += 1

    # ---------------------------------------------------------- fabric hooks
    def transmission_fate(self, src: str, dst: str, t: float) -> tuple[bool, float]:
        """Decide one transmission's fate: ``(lost, extra_delay_seconds)``.

        Called by :meth:`Network.exchange` for every transmission whose
        destination is registered and not in :attr:`Network.down`.  All
        matching windows apply; loss draws happen even when an earlier
        window already doomed the transmission, so the RNG stream — and
        with it every later draw — does not depend on spec order.
        """
        lost = False
        extra = 0.0
        for state in self._transport:
            spec = state.spec
            if not spec.active(t):
                continue
            kind = spec.kind
            if kind == "server_outage":
                if spec.target == dst:
                    self._inject(state)
                    lost = True
            elif kind == "blackhole":
                if (spec.target is None or spec.target == dst) and (
                    spec.src is None or spec.src == src
                ):
                    self._inject(state)
                    lost = True
            elif kind == "upstream_storm":
                if spec.target is None or spec.target == src:
                    self._inject(state)
                    lost = True
            elif kind == "loss":
                if (spec.target is None or spec.target == dst) and (
                    spec.src is None or spec.src == src
                ):
                    if self._rng.random() < (spec.rate or 0.0):
                        self._inject(state)
                        lost = True
                    else:
                        self._suppress(state)
            else:  # delay
                if (spec.target is None or spec.target == dst) and (
                    spec.src is None or spec.src == src
                ):
                    self._inject(state)
                    extra += (spec.delay_ms or 0.0) / 1000.0
        return lost, extra

    def down_sites(self, service_address: str, t: float) -> tuple[str, ...]:
        """Site identifiers (addresses or names) down for this service at ``t``."""
        down: list[str] = []
        for state in self._sites:
            spec = state.spec
            if spec.active(t) and spec.target in (None, service_address):
                down.append(spec.site or "")
        return tuple(down)

    def pick_site(
        self,
        server: object,
        dst_address: str,
        client: "Endpoint",
        latency: "LatencyModel",
        site: "Endpoint",
        t: float,
    ) -> Optional["Endpoint"]:
        """Reroute a delivery around down anycast sites.

        Returns the (possibly rerouted) site, or ``None`` when every
        surviving route is gone — the transmission is then lost, exactly
        like a unicast outage.  Unicast servers have no alternate site,
        so a matching ``anycast_site_down`` takes them fully down.
        """
        down = self.down_sites(dst_address, t)
        if not down or not any(_endpoint_matches(site, ident) for ident in down):
            return site
        for state in self._sites:
            spec = state.spec
            if spec.active(t) and spec.target in (None, dst_address) and (
                spec.site is not None and _endpoint_matches(site, spec.site)
            ):
                self._inject(state)
        failover = getattr(server, "failover_site", None)
        if failover is None:
            return None
        return failover(client, latency, down)

    # ---------------------------------------------------------- server hooks
    def intercept_server(
        self, address: str, query: "Message", now: float
    ) -> Optional["Message"]:
        """A response override, or ``None`` to let the zone answer.

        ``servfail`` and ``truncate`` replace the answer wholesale;
        ``ratelimit`` accounts answers in one-second buckets and slips a
        TC=1 response for everything over ``rate`` (BIND's RRL ``slip``
        behaviour — the resolver falls back to a sibling server, it does
        not silently hang).
        """
        from dataclasses import replace

        from repro.dns.message import Rcode

        for state in self._server:
            spec = state.spec
            if not spec.active(now) or spec.target not in (None, address):
                continue
            if spec.kind == "servfail":
                self._inject(state)
                return query.make_response(rcode=Rcode.SERVFAIL)
            if spec.kind == "truncate":
                self._inject(state)
                response = query.make_response()
                response.flags = replace(response.flags, tc=True)
                return response
            # ratelimit
            bucket = int(now)
            if state.bucket != bucket:
                state.bucket = bucket
                state.bucket_count = 0
            state.bucket_count += 1
            if state.bucket_count > (spec.rate or 0.0):
                self._inject(state)
                response = query.make_response()
                response.flags = replace(response.flags, tc=True)
                return response
            self._suppress(state)
        return None

    # -------------------------------------------------------- resolver hooks
    def take_restart(self, address: str, now: float) -> bool:
        """Whether ``address`` owes a restart at ``now`` (fires at most
        once per resolver per spec)."""
        fired = False
        for state in self._restarts:
            spec = state.spec
            if (
                now >= spec.start
                and spec.target in (None, address)
                and address not in state.fired
            ):
                state.fired.add(address)
                self._inject(state)
                fired = True
        return fired

    # ----------------------------------------------------------- world hooks
    def take_record_changes(self, now: float) -> tuple[FaultSpec, ...]:
        """Record-change events newly due at ``now``, in plan order.

        Each ``record_change`` spec fires exactly once, when the virtual
        clock first reaches its ``start``.  The caller (the world or the
        scenario driving it) applies the renumbering to the zone; a push
        publisher attached to the zone then fans the change out, while
        polling resolvers stay stale until TTL expiry.
        """
        due: list[FaultSpec] = []
        for state in self._changes:
            spec = state.spec
            if now >= spec.start and "*" not in state.fired:
                state.fired.add("*")
                self._inject(state)
                due.append(spec)
        return tuple(due)

    # ------------------------------------------------------------- recovery
    def note_delivery(self, src: str, dst: str, t: float) -> None:
        """Record a completed exchange; resolves pending recoveries.

        A window counts as recovered on the first successful delivery,
        matching its targets, at or after its end.  ``t - end`` lands in
        the time-to-recovery histogram: with probes every 300 s, a 1 h
        outage recovers ~up to 300 s after it lifts (sooner if retries
        straddle the boundary).
        """
        if not self._watchlist:
            return
        kept: list[_FaultState] = []
        for state in self._watchlist:
            spec = state.spec
            if t >= spec.end and self._recovery_match(spec, src, dst):
                state.pending = False
                self.tally.recovered[spec.kind] += 1
                self.tally.time_to_recovery.observe(t - spec.end)
            else:
                kept.append(state)
        self._watchlist = kept

    @staticmethod
    def _recovery_match(spec: FaultSpec, src: str, dst: str) -> bool:
        if spec.kind == "upstream_storm":
            return spec.target in (None, src)
        if spec.src is not None and spec.src != src:
            return False
        return spec.target in (None, dst)


def attach_fault_plan(
    network: Network, own_specs: Iterable[FaultSpec], name: str, seed: int,
    fault_plan: Optional[dict],
) -> FaultInjector:
    """Arm ``network`` with a cell's own fault schedule plus the user's.

    ``fault_plan`` (a :class:`FaultPlan` payload, or ``None``) rides
    along after ``own_specs``; when present its seed — and its name, if
    it has one — identify the combined plan.  The injector's own RNG is
    always derived from the cell ``seed``.
    """
    specs = list(own_specs)
    plan_seed = seed
    if fault_plan is not None:
        extra = FaultPlan.from_payload(fault_plan)
        specs.extend(extra.faults)
        name = extra.name or name
        plan_seed = extra.seed
    injector = FaultInjector(
        FaultPlan(faults=tuple(specs), name=name, seed=plan_seed), seed=seed
    )
    network.attach_faults(injector)
    return injector
