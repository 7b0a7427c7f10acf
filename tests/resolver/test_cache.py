"""Tests for repro.resolver.cache: expiry, credibility, links, pinning."""

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataClass, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility

from tests.conftest import soa_rrset


def a_rrset(name="srv.example.com", ttl=300, address="192.0.2.1"):
    return RRset(Name(name), RdataType.A, ttl, [A(address)])


def ns_rrset(name="example.com", ttl=3600, target="srv.example.com"):
    return RRset(Name(name), RdataType.NS, ttl, [NS(Name(target))])


class TestBasicLifecycle:
    def test_get_returns_inserted(self):
        cache = Cache()
        cache.put(a_rrset(), Credibility.AUTH_ANSWER, now=0.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=10.0)
        assert entry is not None

    def test_expiry(self):
        cache = Cache()
        cache.put(a_rrset(ttl=300), Credibility.AUTH_ANSWER, now=0.0)
        assert cache.get(Name("srv.example.com"), RdataType.A, now=299.9) is not None
        assert cache.get(Name("srv.example.com"), RdataType.A, now=300.0) is None

    def test_remaining_ttl_decreases(self):
        cache = Cache()
        cache.put(a_rrset(ttl=300), Credibility.AUTH_ANSWER, now=0.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=100.0)
        assert entry.remaining_ttl(100.0) == 200
        assert entry.aged_rrset(100.0).ttl == 200

    def test_miss_on_absent(self):
        assert Cache().get(Name("x"), RdataType.A, now=0.0) is None

    def test_stats_hit_miss(self):
        cache = Cache()
        cache.put(a_rrset(), Credibility.AUTH_ANSWER, now=0.0)
        cache.get(Name("srv.example.com"), RdataType.A, now=1.0)
        cache.get(Name("other"), RdataType.A, now=1.0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_clear(self):
        cache = Cache()
        cache.put(a_rrset(), Credibility.AUTH_ANSWER, now=0.0)
        cache.clear()
        assert len(cache) == 0


class TestClamping:
    def test_max_ttl_caps(self):
        cache = Cache(max_ttl=21599)
        cache.put(a_rrset(ttl=345600), Credibility.AUTH_ANSWER, now=0.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=0.0)
        assert entry.remaining_ttl(0.0) == 21599

    def test_min_ttl_floors(self):
        cache = Cache(min_ttl=30)
        cache.put(a_rrset(ttl=1), Credibility.AUTH_ANSWER, now=0.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=0.0)
        assert entry.remaining_ttl(0.0) == 30

    def test_effective_ttl(self):
        cache = Cache(max_ttl=100, min_ttl=10)
        assert cache.effective_ttl(500) == 100
        assert cache.effective_ttl(5) == 10
        assert cache.effective_ttl(50) == 50


class TestCredibility:
    def test_higher_replaces_lower(self):
        cache = Cache()
        cache.put(a_rrset(address="192.0.2.1"), Credibility.ADDITIONAL, now=0.0)
        assert cache.put(a_rrset(address="192.0.2.2"), Credibility.AUTH_ANSWER, now=0.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=0.0)
        assert str(entry.rrset.rdatas[0]) == "192.0.2.2"

    def test_lower_does_not_replace_live_higher(self):
        cache = Cache()
        cache.put(a_rrset(address="192.0.2.2"), Credibility.AUTH_ANSWER, now=0.0)
        assert not cache.put(a_rrset(address="192.0.2.1"), Credibility.ADDITIONAL, now=0.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=0.0)
        assert str(entry.rrset.rdatas[0]) == "192.0.2.2"
        assert cache.stats.refused_downgrades == 1

    def test_lower_replaces_expired_higher(self):
        cache = Cache()
        cache.put(a_rrset(ttl=10, address="192.0.2.2"), Credibility.AUTH_ANSWER, now=0.0)
        assert cache.put(a_rrset(address="192.0.2.1"), Credibility.ADDITIONAL, now=20.0)

    def test_equal_glue_does_not_refresh(self):
        # BIND-like: repeated referrals do not refresh live glue (§4.2).
        cache = Cache()
        cache.put(a_rrset(ttl=100, address="192.0.2.1"), Credibility.ADDITIONAL, now=0.0)
        assert not cache.put(a_rrset(ttl=100, address="192.0.2.9"), Credibility.ADDITIONAL, now=50.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=60.0)
        assert str(entry.rrset.rdatas[0]) == "192.0.2.1"

    def test_equal_auth_answer_refreshes(self):
        cache = Cache()
        cache.put(a_rrset(ttl=100), Credibility.AUTH_ANSWER, now=0.0)
        assert cache.put(a_rrset(ttl=100), Credibility.AUTH_ANSWER, now=50.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=100.0)
        assert entry.remaining_ttl(100.0) == 50

    def test_min_credibility_filter(self):
        cache = Cache()
        cache.put(a_rrset(), Credibility.ADDITIONAL, now=0.0)
        assert cache.get(
            Name("srv.example.com"), RdataType.A, now=0.0,
            min_credibility=Credibility.NONAUTH_ANSWER,
        ) is None
        assert cache.get(Name("srv.example.com"), RdataType.A, now=0.0) is not None


class TestPinning:
    def test_pinned_survives_higher_credibility(self):
        # Parent-centric hold (§4.4): child data never displaces the pin.
        cache = Cache()
        cache.put(a_rrset(ttl=172800, address="192.0.2.1"),
                  Credibility.ADDITIONAL, now=0.0, pin=True)
        assert not cache.put(a_rrset(ttl=7200, address="192.0.2.9"),
                             Credibility.AUTH_ANSWER, now=100.0)
        entry = cache.get(Name("srv.example.com"), RdataType.A, now=200.0)
        assert str(entry.rrset.rdatas[0]) == "192.0.2.1"

    def test_pinned_replaced_after_expiry(self):
        cache = Cache()
        cache.put(a_rrset(ttl=10), Credibility.ADDITIONAL, now=0.0, pin=True)
        assert cache.put(a_rrset(address="192.0.2.9"), Credibility.ADDITIONAL, now=20.0)


class TestLinkedExpiry:
    def setup_linked(self, cache, ns_ttl=3600, a_ttl=7200):
        cache.put(ns_rrset(ttl=ns_ttl), Credibility.AUTHORITY, now=0.0)
        cache.put(
            a_rrset(ttl=a_ttl),
            Credibility.ADDITIONAL,
            now=0.0,
            linked_to=(Name("example.com"), RdataType.NS, RdataClass.IN),
        )

    def test_linked_entry_lives_while_target_lives(self):
        cache = Cache()
        self.setup_linked(cache)
        assert cache.get(Name("srv.example.com"), RdataType.A, now=3599.0) is not None

    def test_linked_entry_dies_with_target(self):
        # §4.2: in-bailiwick A dies when the covering NS expires, even
        # though its own TTL (7200) is still valid.
        cache = Cache()
        self.setup_linked(cache)
        assert cache.get(Name("srv.example.com"), RdataType.A, now=3600.5) is None

    def test_replaced_target_breaks_link(self):
        # New NS generation must not resurrect old glue.
        cache = Cache()
        self.setup_linked(cache, ns_ttl=100)
        cache.put(ns_rrset(ttl=3600), Credibility.AUTHORITY, now=200.0)
        assert cache.get(Name("srv.example.com"), RdataType.A, now=201.0) is None

    def test_dead_link_allows_equal_credibility_replacement(self):
        cache = Cache()
        self.setup_linked(cache, ns_ttl=100)
        # At t=200 the NS is dead, so the (still in-TTL) glue is dead too
        # and fresh glue may take its place.
        assert cache.put(
            a_rrset(address="192.0.2.9"), Credibility.ADDITIONAL, now=200.0
        )

    def test_link_to_missing_target_ignored(self):
        cache = Cache()
        cache.put(
            a_rrset(), Credibility.ADDITIONAL, now=0.0,
            linked_to=(Name("ghost.example"), RdataType.NS, RdataClass.IN),
        )
        # No target existed at insertion: entry stands alone.
        assert cache.get(Name("srv.example.com"), RdataType.A, now=1.0) is not None


class TestStale:
    def test_get_stale_returns_expired(self):
        cache = Cache()
        cache.put(a_rrset(ttl=10), Credibility.AUTH_ANSWER, now=0.0)
        assert cache.get_stale(Name("srv.example.com"), RdataType.A) is not None
        assert cache.stats.stale_hits == 1

    def test_refresh_expiry(self):
        cache = Cache()
        cache.put(a_rrset(ttl=100), Credibility.AUTH_ANSWER, now=0.0)
        cache.refresh_expiry((Name("srv.example.com"), RdataType.A, RdataClass.IN), now=500.0)
        assert cache.get(Name("srv.example.com"), RdataType.A, now=550.0) is not None

    def test_expire_now(self):
        cache = Cache()
        cache.put(a_rrset(ttl=100), Credibility.AUTH_ANSWER, now=0.0)
        cache.expire_now((Name("srv.example.com"), RdataType.A, RdataClass.IN), now=10.0)
        assert cache.get(Name("srv.example.com"), RdataType.A, now=10.0) is None


class TestNegative:
    def test_negative_roundtrip(self):
        cache = Cache()
        cache.put_negative(Name("gone.example"), RdataType.A, True, now=0.0,
                           soa=soa_rrset(minimum=900))
        entry = cache.get_negative(Name("gone.example"), RdataType.A, now=100.0)
        assert entry is not None and entry.credibility is Credibility.NXDOMAIN
        assert entry.rrset.rdatas == () and len(cache) == 1

    def test_negative_ttl_is_min_of_soa_ttl_and_minimum(self):
        cache = Cache()
        cache.put_negative(Name("gone.example"), RdataType.A, False, now=0.0,
                           soa=soa_rrset(ttl=3600, minimum=900))
        assert cache.get_negative(Name("gone.example"), RdataType.A, now=899.0)
        assert cache.get_negative(Name("gone.example"), RdataType.A, now=901.0) is None

    def test_replaced_or_cleared_negative_is_retired(self):
        cache = Cache()
        cache.put_negative(Name("gone.example"), RdataType.A, True, now=0.0, soa=soa_rrset())
        first = cache.peek(Name("gone.example"), RdataType.A)
        assert first.generation > 0
        cache.put_negative(Name("gone.example"), RdataType.A, False, now=10.0, soa=soa_rrset())
        second = cache.peek(Name("gone.example"), RdataType.A)
        assert second is not first and second.generation > 0
        assert first.generation == -1
        cache.clear()
        assert second.generation == -1

    def test_negative_is_the_keys_one_entry(self):
        """A negative answer takes the key's slot; data written over it is
        served at once, and nothing brings the old data back."""
        cache = Cache()
        cache.put(a_rrset(ttl=1000), Credibility.AUTH_ANSWER, now=0.0)
        positive = cache.peek(Name("srv.example.com"), RdataType.A)
        cache.put_negative(Name("srv.example.com"), RdataType.A, False, now=10.0,
                           soa=soa_rrset())
        assert positive.generation == -1 and len(cache) == 1
        assert cache.get(Name("srv.example.com"), RdataType.A, now=20.0) is None
        assert cache.get_stale(Name("srv.example.com"), RdataType.A) is None
        assert cache.get_negative(Name("srv.example.com"), RdataType.A, now=20.0)
        # Glue outranks a negative: any data replaces it while it lives.
        assert cache.put(a_rrset(ttl=60), Credibility.ADDITIONAL, now=30.0)
        assert cache.get_negative(Name("srv.example.com"), RdataType.A, now=31.0) is None
        assert cache.get(Name("srv.example.com"), RdataType.A, now=31.0) is not None

    def test_expired_negative_is_dropped_by_the_next_write(self):
        cache = Cache()
        cache.put_negative(Name("gone.example"), RdataType.A, True, now=0.0, soa=soa_rrset())
        negative = cache.peek(Name("gone.example"), RdataType.A)
        assert cache.due_expirations(now=0.0, horizon=1000.0) == []
        assert cache.get_stale(Name("gone.example"), RdataType.A) is None
        cache.put(a_rrset(), Credibility.AUTH_ANSWER, now=300.0)
        assert cache.peek(Name("gone.example"), RdataType.A) is None
        assert negative.generation == -1 and len(cache) == 1
