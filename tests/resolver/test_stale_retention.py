"""Serve-stale retention under eviction pressure.

RFC 8767 only works if expired entries actually survive in the cache
until something needs them.  These tests pin the contract between
eviction and ``get_stale``: eviction removes exactly as many entries as
the overflow requires, least recently written first (an expired entry is
not taken ahead of its turn, nor kept past it), link death alone never
removes anything, and a stale entry consumed by a revalidation is
replaced atomically.
"""

from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataClass, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility


def a_rrset(name, ttl=300, address="192.0.2.1"):
    return RRset(Name(name), RdataType.A, ttl, [A(address)])


def ns_rrset(name, ttl=3600, target="srv.example.com."):
    return RRset(Name(name), RdataType.NS, ttl, [NS(Name(target))])


class TestDeadFirstEvictionRetention:
    def test_unevicted_expired_entries_stay_stale_servable(self):
        """Overflow evicts only as many dead entries as needed; the rest
        of the expired population remains available to get_stale."""
        cache = Cache(max_entries=3)
        cache.put(a_rrset("a.example.", ttl=10), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(a_rrset("b.example.", ttl=10), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(a_rrset("c.example.", ttl=1000), Credibility.AUTH_ANSWER, now=0.0)
        # t=20: a and b are both expired.  Inserting d overflows by one;
        # eviction takes exactly one victim (a, least recent).
        cache.put(a_rrset("d.example.", ttl=1000), Credibility.AUTH_ANSWER, now=20.0)
        assert len(cache) == 3
        assert cache.get_stale(Name("a.example."), RdataType.A) is None
        survivor = cache.get_stale(Name("b.example."), RdataType.A)
        assert survivor is not None
        assert 20.0 >= survivor.expires_at  # stale, and still servable

    def test_expired_entry_survives_until_pressure_arrives(self):
        cache = Cache(max_entries=8)
        cache.put(a_rrset("a.example.", ttl=10), Credibility.AUTH_ANSWER, now=0.0)
        # Far past expiry, with room to spare: retention is indefinite.
        for index in range(7):
            cache.put(
                a_rrset(f"fill{index}.example.", ttl=1000),
                Credibility.AUTH_ANSWER,
                now=5000.0,
            )
        assert cache.get_stale(Name("a.example."), RdataType.A) is not None

    def test_live_entries_survive_while_dead_ones_are_taken(self):
        cache = Cache(max_entries=2)
        cache.put(a_rrset("dead.example.", ttl=10), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(a_rrset("live.example.", ttl=1000), Credibility.AUTH_ANSWER, now=0.0)
        cache.put(a_rrset("new.example.", ttl=1000), Credibility.AUTH_ANSWER, now=20.0)
        # The least recently written entry, expired here, was the one evicted.
        assert cache.get_stale(Name("dead.example."), RdataType.A) is None
        assert cache.get(Name("live.example."), RdataType.A, now=20.0) is not None


class TestLinkDeathRetention:
    def test_link_dead_entry_still_stale_servable(self):
        """Link death is not a removal: glue whose NS set was replaced
        must remain stale-servable."""
        cache = Cache(max_entries=8)
        cache.put(ns_rrset("example.com."), Credibility.AUTHORITY, now=0.0)
        ns_key = (Name("example.com."), RdataType.NS, RdataClass.IN)
        cache.put(
            a_rrset("srv.example.com.", ttl=3600),
            Credibility.ADDITIONAL,
            now=0.0,
            linked_to=ns_key,
        )
        # Replacing the NS set breaks the glue's link (kills it)...
        cache.put(
            ns_rrset("example.com.", target="other.example.net."),
            Credibility.AUTH_ANSWER,
            now=10.0,
        )
        assert cache.get(Name("srv.example.com."), RdataType.A, now=10.0) is None
        # ...but the bytes are still there for serve-stale.
        stale = cache.get_stale(Name("srv.example.com."), RdataType.A)
        assert stale is not None
        assert stale.rrset.rdatas  # the original glue address survives

    def test_link_dead_entries_preferred_victims_but_only_under_pressure(self):
        cache = Cache(max_entries=3)
        cache.put(ns_rrset("example.com.", ttl=3600), Credibility.AUTHORITY, now=0.0)
        ns_key = (Name("example.com."), RdataType.NS, RdataClass.IN)
        cache.put(
            a_rrset("srv.example.com.", ttl=3600),
            Credibility.ADDITIONAL,
            now=0.0,
            linked_to=ns_key,
        )
        cache.put(
            ns_rrset("example.com.", target="other.example.net."),
            Credibility.AUTH_ANSWER,
            now=10.0,
        )
        # Still under capacity: the link-dead glue is retained.
        assert cache.get_stale(Name("srv.example.com."), RdataType.A) is not None
        cache.put(a_rrset("x.example.", ttl=100), Credibility.AUTH_ANSWER, now=20.0)
        cache.put(a_rrset("y.example.", ttl=100), Credibility.AUTH_ANSWER, now=20.0)
        # Overflow: the glue, least recently written (its NS set's renewal
        # moved that to the recent end), goes; live entries stay.
        assert cache.get_stale(Name("srv.example.com."), RdataType.A) is None
        assert cache.get(Name("x.example."), RdataType.A, now=20.0) is not None


class TestRevalidationReplacement:
    def test_stale_entry_replaced_atomically_by_revalidation(self):
        """A revalidation's put must atomically supersede the stale entry:
        new generation, new bytes, full lifetime — and the stale view is
        gone in the same step."""
        cache = Cache()
        cache.put(
            a_rrset("w.example.", ttl=60, address="192.0.2.1"),
            Credibility.AUTH_ANSWER,
            now=0.0,
        )
        old = cache.get_stale(Name("w.example."), RdataType.A)
        assert old is not None and 100.0 >= old.expires_at
        old_generation = old.generation
        # The revalidation lands (dead entries always lose to fresh data,
        # even at equal credibility).
        assert cache.put(
            a_rrset("w.example.", ttl=60, address="198.51.100.7"),
            Credibility.AUTH_ANSWER,
            now=100.0,
        )
        fresh = cache.get(Name("w.example."), RdataType.A, now=100.0)
        assert fresh is not None
        assert fresh.generation > old_generation
        assert str(fresh.rrset.rdatas[0]) == "198.51.100.7"
        assert fresh.remaining_ttl(100.0) == 60
        # get_stale now sees only the fresh entry — no window where the
        # key dangles between the two.
        assert cache.get_stale(Name("w.example."), RdataType.A) is fresh

    def test_revalidation_of_link_dead_entry_replaces_it(self):
        cache = Cache()
        cache.put(ns_rrset("example.com."), Credibility.AUTHORITY, now=0.0)
        ns_key = (Name("example.com."), RdataType.NS, RdataClass.IN)
        cache.put(
            a_rrset("srv.example.com.", ttl=3600),
            Credibility.ADDITIONAL,
            now=0.0,
            linked_to=ns_key,
        )
        cache.put(
            ns_rrset("example.com.", target="other.example.net."),
            Credibility.AUTH_ANSWER,
            now=10.0,
        )
        # Link-dead glue is dead for replacement purposes too: a fresh
        # authoritative answer takes the slot outright.
        assert cache.put(
            a_rrset("srv.example.com.", ttl=120, address="203.0.113.9"),
            Credibility.AUTH_ANSWER,
            now=10.0,
        )
        entry = cache.get(Name("srv.example.com."), RdataType.A, now=10.0)
        assert entry is not None
        assert entry.linked_to is None  # the new entry stands alone
