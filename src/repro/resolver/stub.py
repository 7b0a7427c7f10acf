"""The stub resolver: what a client (or Atlas probe) talks to.

A stub forwards queries to one recursive resolver and accounts the
client-to-resolver leg of latency: an on-network resolver (same AS) is a
few milliseconds away, a public resolver (OpenDNS/Google-like, different
AS) is a real network hop.  The total RTT a stub reports is exactly what a
RIPE Atlas DNS measurement records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.dns.record import RRset
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint
from repro.resolver.recursive import RecursiveResolver


@dataclass
class StubAnswer:
    """One client-visible answer with its end-to-end round trip time."""

    rcode: Rcode
    answers: list[RRset] = field(default_factory=list)
    rtt: float = 0.0
    cache_hit: bool = False
    served_stale: bool = False
    resolver_address: str = ""

    @property
    def answer_rrset(self) -> Optional[RRset]:
        return self.answers[-1] if self.answers else None

    def ttl(self) -> Optional[int]:
        """TTL of the final answer — the value the paper's CDFs plot."""
        rrset = self.answer_rrset
        return rrset.ttl if rrset is not None else None


class StubResolver:
    """A client-side stub bound to one upstream recursive resolver."""

    def __init__(
        self,
        endpoint: Endpoint,
        resolver: RecursiveResolver,
        latency: LatencyModel,
        seed: int = 0,
    ) -> None:
        self.endpoint = endpoint
        self.resolver = resolver
        self._resolver_address = resolver.address
        self._rng = random.Random(seed ^ 0x57AB)
        #: Client → recursive resolver round trip, in seconds, one draw per
        #: call: the last mile to an on-network resolver (same AS), else a
        #: network path.  Bound once, so a call is one frame: the sampler's.
        self.client_leg_rtt = (
            partial(latency.last_mile_rtt, self._rng)
            if endpoint.asn == resolver.endpoint.asn
            else partial(latency.rtt, endpoint, resolver.endpoint, self._rng)
        )

    def __repr__(self) -> str:
        return f"StubResolver({self.endpoint.address} -> {self._resolver_address})"

    def query(
        self,
        qname: Name | str,
        qtype: RdataType,
        now: float,
        leg: Optional[float] = None,
    ) -> StubAnswer:
        """Send one query and measure the full round trip.

        ``leg`` is this query's :attr:`client_leg_rtt` when the caller has
        already drawn it (the probe loop draws before it knows whether a
        hit lease answers the slot); a query draws exactly one.
        """
        if leg is None:
            leg = self.client_leg_rtt()
        result = self.resolver.resolve(qname, qtype, now + leg / 2.0)
        return StubAnswer(
            rcode=result.rcode,
            answers=result.answers,
            rtt=leg + result.elapsed,
            cache_hit=result.cache_hit,
            served_stale=result.served_stale,
            resolver_address=self._resolver_address,
        )
