"""Tests for the bounded-cache (LRU) behaviour."""

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import A, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility


def rrset(index: int, ttl: int = 3600) -> RRset:
    return RRset(Name(f"h{index}.example."), RdataType.A, ttl,
                 [A(f"192.0.2.{index % 250}")])


def fill(cache: Cache, count: int, now: float = 0.0, **put_kwargs) -> None:
    for index in range(count):
        cache.put(rrset(index), Credibility.AUTH_ANSWER, now=now, **put_kwargs)


class TestBounds:
    def test_unbounded_by_default(self):
        cache = Cache()
        fill(cache, 500)
        assert len(cache) == 500

    def test_bound_enforced(self):
        cache = Cache(max_entries=10)
        fill(cache, 50)
        assert len(cache) == 10
        assert cache.stats.evictions == 40

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            Cache(max_entries=0)


class TestEvictionOrder:
    def test_least_recently_used_evicted_first(self):
        cache = Cache(max_entries=3)
        fill(cache, 3)
        # Touch h0 so h1 becomes the LRU victim.
        assert cache.get(Name("h0.example."), RdataType.A, now=1.0) is not None
        cache.put(rrset(99), Credibility.AUTH_ANSWER, now=2.0)
        assert cache.peek(Name("h1.example."), RdataType.A) is None
        assert cache.peek(Name("h0.example."), RdataType.A) is not None

    def test_dead_entries_evicted_before_live(self):
        cache = Cache(max_entries=3)
        cache.put(rrset(0, ttl=1), Credibility.AUTH_ANSWER, now=0.0)  # dies at t=1
        cache.put(rrset(1), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(rrset(2), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(rrset(3), Credibility.AUTH_ANSWER, now=10.0)  # h0 is dead now
        assert cache.peek(Name("h0.example."), RdataType.A) is None
        assert cache.peek(Name("h1.example."), RdataType.A) is not None

    def test_pinned_entries_evicted_last(self):
        cache = Cache(max_entries=2)
        cache.put(rrset(0), Credibility.ADDITIONAL, now=0.0, pin=True)
        cache.put(rrset(1), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(rrset(2), Credibility.AUTH_ANSWER, now=0.0)
        assert cache.peek(Name("h0.example."), RdataType.A) is not None  # pinned kept
        assert len(cache) == 2


class TestFreshWriteClearsStandingMarks:
    def test_mark_left_by_an_evicted_incarnation_does_not_outrank_older_dead(self):
        """A key evicted while link-dead and then re-created starts at the
        recent end: when its link dies again, less recently used dead
        entries go before it, whatever its old incarnation's place was."""
        from repro.dns.rdtypes import NS, RdataClass

        def ns(name: str, target: str) -> RRset:
            return RRset(Name(name), RdataType.NS, 10000, [NS(Name(target))])

        def glue(name: str, ttl: int) -> RRset:
            return RRset(Name(name), RdataType.A, ttl, [A("192.0.2.53")])

        one = (Name("one.example."), RdataType.NS, RdataClass.IN)
        two = (Name("two.example."), RdataType.NS, RdataClass.IN)
        cache = Cache(max_entries=5)
        cache.put(ns("one.example.", "d.one.example."), Credibility.AUTHORITY, now=0.0)
        cache.put(ns("two.example.", "e.two.example."), Credibility.AUTHORITY, now=0.0)
        cache.put(glue("d.one.example.", 10), Credibility.ADDITIONAL, now=0.0, linked_to=one)
        cache.put(glue("e.two.example.", 10000), Credibility.ADDITIONAL, now=0.0, linked_to=two)
        # d's NS set is replaced (d is link-dead), then d expires and is the
        # dead victim of the next overflow.
        cache.put(ns("one.example.", "d.one.example."), Credibility.AUTH_ANSWER, now=5.0)
        cache.put(rrset(1), Credibility.AUTH_ANSWER, now=20.0)
        cache.put(rrset(2), Credibility.AUTH_ANSWER, now=21.0)
        assert cache.peek(Name("d.one.example."), RdataType.A) is None
        assert cache.stats.evictions == 1
        # Room to re-create d without an eviction pass.
        cache.max_entries = 7
        cache.put(glue("d.one.example.", 10000), Credibility.ADDITIONAL, now=30.0, linked_to=one)
        # e's link dies first, the new d's second; e is less recently used.
        cache.put(ns("two.example.", "e.two.example."), Credibility.AUTH_ANSWER, now=31.0)
        cache.put(ns("one.example.", "d.one.example."), Credibility.AUTH_ANSWER, now=32.0)
        cache.put(rrset(3), Credibility.AUTH_ANSWER, now=33.0)
        cache.put(rrset(4), Credibility.AUTH_ANSWER, now=33.0)  # overflow by one
        assert cache.stats.evictions == 2
        assert cache.peek(Name("e.two.example."), RdataType.A) is None
        assert cache.peek(Name("d.one.example."), RdataType.A) is not None


class TestBoundedResolverStillWorks:
    def test_resolution_with_tiny_cache(self, mini_world):
        """A resolver with a pathologically small cache must still resolve
        (it just re-fetches infrastructure constantly)."""
        from repro.dns.message import Rcode
        from repro.net.topology import Region
        from repro.resolver.recursive import RecursiveResolver

        resolver = RecursiveResolver(
            endpoint=mini_world.topology.endpoint_in_region(Region.EU),
            network=mini_world.network,
            root_hints=mini_world.hints,
        )
        resolver.cache.max_entries = 2
        for i in range(4):
            out = resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 10))
            assert out.rcode == Rcode.NOERROR
        assert resolver.cache.stats.evictions > 0
