"""Forwarding resolvers: the multi-layer client-side infrastructure.

The paper's §4.4 observes that "clients often employ multiple levels of
resolvers, with local resolvers, forwarders, and sometimes replicated
recursive resolvers", and that this complex infrastructure "affects what
users see from what operators announce" — e.g. cache fragmentation makes
some OpenDNS clients see a mix of old and new answers (§4.4).

A :class:`ForwardingResolver` holds its own cache but performs no
iteration: misses are forwarded to one or more upstream recursive
resolvers (round-robin across upstreams, which is exactly what fragments
caches — successive queries may hit different upstream caches with
different remaining TTLs).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataClass, RdataType
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint
from repro.resolver.cache import Cache, CacheEntry, Credibility
from repro.resolver.recursive import RecursiveResolver, ResolutionResult

Upstream = Union[RecursiveResolver, "ForwardingResolver"]


class ForwardingResolver:
    """A caching forwarder in front of one or more recursive resolvers."""

    def __init__(
        self,
        endpoint: Endpoint,
        upstreams: Sequence[Upstream],
        latency: LatencyModel,
        max_ttl: Optional[int] = None,
        min_ttl: int = 0,
    ) -> None:
        if not upstreams:
            raise ValueError("a forwarder needs at least one upstream")
        self.endpoint = endpoint
        self.upstreams = list(upstreams)
        self.cache = Cache(max_ttl=max_ttl, min_ttl=min_ttl)
        self._latency = latency
        self._next_upstream = 0
        self.client_queries = 0
        self.forwarded_queries = 0

    def __repr__(self) -> str:
        return f"ForwardingResolver({self.endpoint.address}, {len(self.upstreams)} upstreams)"

    @property
    def address(self) -> str:
        return self.endpoint.address

    def _pick_upstream(self) -> Upstream:
        """Round-robin — the cache-fragmenting behaviour of §4.4."""
        upstream = self.upstreams[self._next_upstream % len(self.upstreams)]
        self._next_upstream += 1
        return upstream

    def _upstream_leg(self, upstream: Upstream) -> float:
        """RTT from this forwarder to the chosen upstream, in seconds."""
        if upstream.endpoint.asn == self.endpoint.asn:
            return self._latency.last_mile_rtt()
        return self._latency.rtt(self.endpoint, upstream.endpoint)

    def resolve(self, qname: Name | str, qtype: RdataType, now: float) -> ResolutionResult:
        """Answer from the local cache, else forward."""
        self.client_queries += 1
        name = qname if type(qname) is Name else Name(qname)
        entry = self.cache.get_entry((name, qtype, RdataClass.IN), now)
        if entry is not None:
            return ResolutionResult(
                rcode=Rcode.NOERROR,
                answers=[entry.aged_rrset(now)],
                cache_hit=True,
            )

        upstream = self._pick_upstream()
        leg = self._upstream_leg(upstream)
        self.forwarded_queries += 1
        result = upstream.resolve(name, qtype, now + leg / 2.0)
        elapsed = leg + result.elapsed

        # A negative result carries no SOA, so it is not cached (RFC 2308 §5).
        if result.rcode == Rcode.NOERROR and result.answers:
            for rrset in result.answers:
                # The upstream is non-authoritative; its answers cache at
                # non-auth answer rank.
                self.cache.put(
                    rrset, Credibility.NONAUTH_ANSWER, now + elapsed
                )

        return ResolutionResult(
            rcode=result.rcode,
            answers=result.answers,
            elapsed=elapsed,
            cache_hit=False,
            served_stale=result.served_stale,
            servers_contacted=[upstream.address, *result.servers_contacted],
        )

    def hit_lease(self, qname: Name, qtype: RdataType) -> Optional[CacheEntry]:
        """The local entry that alone decides the next answers for
        ``(qname, qtype)`` — :meth:`RecursiveResolver.hit_lease`'s contract;
        a forwarder has no hooks, so only the cache can decline."""
        return self.cache.lease((qname, qtype, RdataClass.IN))

    def count_leased_hits(self, count: int) -> None:
        """Account ``count`` client queries answered from a hit lease:
        what that many :meth:`Cache.get_entry` hits count."""
        self.client_queries += count
        self.cache.stats.hits += count
