"""Tests for the bounded cache: it evicts the least recently written entry."""

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import A, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility

from tests.conftest import soa_rrset


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

    def test_size_peak_never_exceeds_the_bound(self):
        """The peak is noted after the write's eviction, so the transient
        extra entry an overflowing write holds is never reported."""
        cache = Cache(max_entries=10)
        fill(cache, 50)
        for index in range(50, 60):
            cache.put_negative(Name(f"n{index}.example."), RdataType.A, True, 0.0, soa_rrset())
        assert cache.stats.size_peak == 10

    def test_unbounded_size_peak_counts_every_entry(self):
        cache = Cache()
        fill(cache, 50)
        assert cache.stats.size_peak == 50

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            Cache(max_entries=0)


class TestEvictionOrder:
    def test_least_recently_written_evicted_first(self):
        """A hit is a read, not a write: it leaves the eviction order as
        it was, so the hit h0 is still the first to go."""
        cache = Cache(max_entries=4)
        fill(cache, 3)
        cache.put_negative(Name("h0.example."), RdataType.AAAA, True, now=0.5, soa=soa_rrset())
        order = list(cache._entries)
        assert cache.get(Name("h0.example."), RdataType.A, now=1.0) is not None
        assert cache.get_negative(Name("h0.example."), RdataType.AAAA, now=1.0) is not None
        assert list(cache._entries) == order
        cache.put(rrset(99), Credibility.AUTH_ANSWER, now=2.0)
        assert cache.peek(Name("h0.example."), RdataType.A) is None
        assert cache.peek(Name("h1.example."), RdataType.A) is not None

    def test_dead_entries_evicted_before_live(self):
        cache = Cache(max_entries=3)
        cache.put(rrset(0, ttl=1), Credibility.AUTH_ANSWER, now=0.0)  # dies at t=1
        cache.put(rrset(1), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(rrset(2), Credibility.AUTH_ANSWER, now=0.0)
        # h0 is dead now, and the least recently written: the one rule takes it.
        cache.put(rrset(3), Credibility.AUTH_ANSWER, now=10.0)
        assert cache.peek(Name("h0.example."), RdataType.A) is None
        assert cache.peek(Name("h1.example."), RdataType.A) is not None


class TestEvictionCost:
    def test_overflowing_put_runs_as_many_lines_at_any_bound(self):
        """One rule and no scan: a write that overflows a full cache of
        live entries runs as many lines of the cache module at a bound of
        2000 as at a bound of 10."""
        import sys

        from repro.resolver import cache as cache_module

        def lines_run(bound: int) -> int:
            cache = Cache(max_entries=bound)
            fill(cache, bound)
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                if frame.f_code.co_filename != cache_module.__file__:
                    return None
                count += event == "line"
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                cache.put(rrset(bound), Credibility.AUTH_ANSWER, now=1.0)
            finally:
                sys.settrace(previous)
            assert cache.stats.evictions == 1
            assert cache.peek(Name("h0.example."), RdataType.A) is None
            return count

        assert lines_run(10) == lines_run(2000)


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
