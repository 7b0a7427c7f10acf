"""Property-based tests for the resolver cache (hypothesis)."""

import string

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.dns.name import Name
from repro.dns.rdtypes import A, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility

from tests.conftest import soa_rrset

names = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    min_size=1,
    max_size=3,
).map(Name)

ttls = st.integers(min_value=0, max_value=10**6)
credibilities = st.sampled_from(list(Credibility))
times = st.floats(min_value=0.0, max_value=10**7, allow_nan=False)


def rrset_for(name, ttl, octet):
    return RRset(name, RdataType.A, ttl, [A(f"192.0.2.{octet % 256}")])


@given(names, ttls, credibilities, times, times)
def test_never_returns_expired(name, ttl, credibility, insert_at, query_at):
    cache = Cache()
    cache.put(rrset_for(name, ttl, 1), credibility, now=insert_at)
    entry = cache.get(name, RdataType.A, now=query_at)
    if entry is not None:
        assert query_at < insert_at + ttl


@given(names, ttls, times, st.floats(min_value=0, max_value=10**6))
def test_remaining_ttl_never_exceeds_original(name, ttl, insert_at, delta):
    cache = Cache()
    cache.put(rrset_for(name, ttl, 1), Credibility.AUTH_ANSWER, now=insert_at)
    entry = cache.get(name, RdataType.A, now=insert_at + delta)
    if entry is not None:
        remaining = entry.remaining_ttl(insert_at + delta)
        assert 0 <= remaining <= ttl


@given(names, ttls, st.integers(min_value=0, max_value=3600))
def test_cap_always_honoured(name, ttl, cap):
    cache = Cache(max_ttl=cap)
    cache.put(rrset_for(name, ttl, 1), Credibility.AUTH_ANSWER, now=0.0)
    entry = cache.get(name, RdataType.A, now=0.0)
    assert entry is None or entry.remaining_ttl(0.0) <= cap


@given(
    st.lists(
        st.tuples(credibilities, ttls, st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=8,
    )
)
def test_credibility_never_decreases_while_live(operations):
    """Whatever the sequence of puts at time 0, the surviving entry's
    credibility is the maximum of the accepted ones."""
    cache = Cache()
    name = Name("srv.example")
    best_accepted = None
    for credibility, ttl, octet in operations:
        accepted = cache.put(rrset_for(name, max(ttl, 1), octet), credibility, now=0.0)
        if accepted:
            best_accepted = credibility
        entry = cache.peek(name, RdataType.A)
        assert entry is not None
        if best_accepted is not None:
            assert entry.credibility >= best_accepted or 0.0 >= entry.expires_at


@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=10**5))
def test_linked_entry_never_outlives_target(ns_ttl, a_ttl):
    from repro.dns.rdtypes import NS, RdataClass

    cache = Cache()
    ns = RRset(Name("zone.example"), RdataType.NS, ns_ttl, [NS(Name("srv.zone.example"))])
    cache.put(ns, Credibility.AUTHORITY, now=0.0)
    cache.put(
        rrset_for(Name("srv.zone.example"), a_ttl, 1),
        Credibility.ADDITIONAL,
        now=0.0,
        linked_to=(Name("zone.example"), RdataType.NS, RdataClass.IN),
    )
    effective_death = min(ns_ttl, a_ttl)
    assert cache.get(Name("srv.zone.example"), RdataType.A, now=effective_death - 0.5) is not None
    assert cache.get(Name("srv.zone.example"), RdataType.A, now=effective_death + 0.5) is None


@given(
    names,
    st.integers(min_value=1, max_value=10**6),
    credibilities,
    credibilities,
    times,
)
def test_live_entry_survives_lower_credibility_arrival(
    name, ttl, cred_old, cred_new, fraction
):
    """An arriving RRset never displaces a live entry of strictly higher
    credibility — the single rule that makes resolvers child-centric
    (RFC 2181 §5.4.1; paper §4.1)."""
    assume(cred_new < cred_old)
    cache = Cache()
    cache.put(rrset_for(name, ttl, 1), cred_old, now=0.0)
    later = (fraction % 1.0) * (ttl - 0.5)  # any instant while still live
    accepted = cache.put(rrset_for(name, ttl, 2), cred_new, now=later)
    assert not accepted
    entry = cache.peek(name, RdataType.A)
    assert entry is not None
    assert entry.credibility == cred_old
    assert str(entry.rrset.rdatas[0]) == "192.0.2.1"  # original data intact
    assert cache.stats.refused_downgrades == 1


@given(
    st.integers(min_value=2, max_value=10**5),
    st.integers(min_value=2, max_value=10**5),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_linked_entry_dies_when_target_is_replaced(ns_ttl, a_ttl, fraction):
    """Glue is tied to the *generation* of the NS set it arrived with: a
    replacement of the NS entry (not just its expiry) kills the old glue,
    so a later refresh never resurrects stale addresses (§4.2)."""
    from repro.dns.rdtypes import NS, RdataClass

    cache = Cache()
    zone = Name("zone.example")
    server = Name("srv.zone.example")
    ns_key = (zone, RdataType.NS, RdataClass.IN)
    ns = RRset(zone, RdataType.NS, ns_ttl, [NS(server)])
    cache.put(ns, Credibility.AUTHORITY, now=0.0)
    cache.put(
        rrset_for(server, a_ttl, 1),
        Credibility.ADDITIONAL,
        now=0.0,
        linked_to=ns_key,
    )
    # Replace the NS set while everything is still live: an authoritative
    # answer outranks the referral's authority data, so the put succeeds
    # and bumps the key's generation.
    replace_at = fraction * (min(ns_ttl, a_ttl) - 1.0)
    replaced = cache.put(
        RRset(zone, RdataType.NS, ns_ttl, [NS(server)]),
        Credibility.AUTH_ANSWER,
        now=replace_at,
    )
    assert replaced
    # The new NS entry is live, the glue's own TTL has not passed — yet
    # the glue is dead, because its link names the previous generation.
    probe_at = replace_at + 0.5
    assert cache.get(zone, RdataType.NS, now=probe_at) is not None
    assert cache.get(server, RdataType.A, now=probe_at) is None
    # Only the generation link killed it: its own TTL has not run out.
    assert cache.peek(server, RdataType.A).expires_at > probe_at


# -- the expiry heap drains ----------------------------------------------------
#
# Every write surfaces what is due — dropping expired negative entries —
# and rebuilds the heap once garbage outweighs content, so neither the heap
# nor the cache can grow with the number of writes — only with what is
# actually live.  A positive entry's expiry is indexed only once a
# refresh-ahead reader has asked.


def heap_within_bound(cache: Cache) -> bool:
    return len(cache._expiry_heap) <= 64 + 4 * len(cache)


def test_superseded_long_ttl_records_do_not_pile_up():
    """The referral pattern: a 2-day low-rank RRset is superseded a second
    later by a 60 s answer, over and over.  Each superseded record would
    sit in the heap for its full two days."""
    cache = Cache()
    keys = [Name(f"zone{index}.example") for index in range(4)]
    for write in range(5_000):
        name = keys[write % len(keys)]
        now = write * 20.0  # each key comes round every 80 s: its answer has died
        assert cache.put(rrset_for(name, 172_800, write), Credibility.AUTHORITY, now=now)
        assert heap_within_bound(cache)
        assert cache.put(rrset_for(name, 60, write), Credibility.AUTH_ANSWER, now=now + 1.0)
        assert heap_within_bound(cache)
    assert len(cache) == len(keys)


def test_expired_negative_entries_are_dropped():
    """A random-subdomain NXDOMAIN stream: every name is new, so nothing
    ever overwrites an old negative entry — only expiry can remove it."""
    from repro.dns.rdtypes import SOA

    def soa(minimum):
        rdata = SOA(Name("ns.example"), Name("h.example"), 1, 7200, 3600, 86400, minimum)
        return RRset(Name("example"), RdataType.SOA, 3600, [rdata])

    negative_ttls = [10 * step for step in range(1, 21)]  # 10 s .. 200 s
    soas = [soa(ttl) for ttl in negative_ttls]
    cache = Cache()
    for second in range(10_000):  # one new name per second
        cache.put_negative(
            Name(f"r{second}.example"), RdataType.A, True, now=float(second),
            soa=soas[second % len(soas)],
        )
        # At most the names of the last max-TTL window are still alive.
        assert len(cache) <= max(negative_ttls) + 1
        assert heap_within_bound(cache)
    assert cache.get_negative(Name("r9999.example"), RdataType.A, now=9_999.5) is not None


def test_campaign_caches_end_with_bounded_heaps(monkeypatch):
    """End to end: the short-TTL .uy campaign, where every resolver cache
    re-learns the 2-day referral and the 60 s child answer each minute."""
    from repro.core.scenarios import scenario_uy_ns

    caches = []
    construct = Cache.__init__

    def recording_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        caches.append(self)

    monkeypatch.setattr(Cache, "__init__", recording_init)
    scenario_uy_ns(probes=50, child_ns_ttl=60, duration=7200, interval=60)
    assert caches
    entries = sum(len(cache) for cache in caches)
    records = sum(len(cache._expiry_heap) for cache in caches)
    assert entries > 0
    assert records <= 64 * len(caches) + 4 * entries
    # No refresh-ahead reader asked: no record describes a positive entry.
    for cache in caches:
        for _, _, key, generation in cache._expiry_heap:
            entry = cache.peek(*key)
            assert entry is None or entry.generation != generation or (
                entry.credibility <= Credibility.NODATA
            )


def test_positive_writes_are_indexed_once_a_reader_has_asked():
    """The first due_expirations indexes what is cached; every positive
    write after it pushes a record the feed returns, clear() included."""
    from repro.dns.rdtypes import RdataClass

    def key(name):
        return (name, RdataType.A, RdataClass.IN)

    early, late = Name("early.example"), Name("late.example")
    cache = Cache()
    cache.put(rrset_for(early, 100, 1), Credibility.AUTH_ANSWER, now=0.0)
    assert not cache._expiry_heap
    assert cache.due_expirations(now=0.0, horizon=50.0) == []
    assert len(cache._expiry_heap) == 1
    cache.put(rrset_for(late, 60, 2), Credibility.AUTH_ANSWER, now=10.0)
    assert len(cache._expiry_heap) == 2
    assert cache.due_expirations(now=20.0, horizon=100.0) == [
        (key(late), 70.0), (key(early), 100.0),
    ]
    # A restarted resolver keeps its reader: clear() leaves indexing on.
    cache.clear()
    cache.put(rrset_for(early, 30, 3), Credibility.AUTH_ANSWER, now=200.0)
    assert cache.due_expirations(now=200.0, horizon=60.0) == [(key(early), 230.0)]
    assert heap_within_bound(cache)


def test_clear_leaves_a_cache_that_works():
    """clear() resets every piece of state the write paths maintain:
    scoped, negative and bounded-global writes all behave as on a new
    cache afterwards.  The negative entry counts toward ``max_entries``:
    the least recently written, it is the first of three evicted."""
    from repro.dns.ecs import ClientSubnet

    cache = Cache(max_entries=2)
    subnet = ClientSubnet.from_ip("198.18.0.0", 24)
    name = Name("www.example")

    def fill(now):
        cache.put_scoped(rrset_for(name, 60, 1), subnet, 24, now=now)
        cache.put_negative(Name("gone.example"), RdataType.A, True, now=now, soa=soa_rrset())
        for index in range(4):
            cache.put(
                rrset_for(Name(f"h{index}.example"), 60, index),
                Credibility.AUTH_ANSWER,
                now=now,
            )

    fill(0.0)
    cache.clear()
    assert len(cache) == 0
    assert cache.ecs_scoped_len() == 0
    assert not cache._expiry_heap
    assert cache.get_scoped(name, RdataType.A, subnet, now=1.0) is None
    assert cache.get_negative(Name("gone.example"), RdataType.A, now=1.0) is None
    evictions = cache.stats.evictions
    fill(1000.0)
    assert len(cache) == 2
    assert cache.stats.evictions == evictions + 3
    assert cache.ecs_scoped_len() == 1
    assert cache.get_scoped(name, RdataType.A, subnet, now=1001.0).scope == 24
    assert cache.get_negative(Name("gone.example"), RdataType.A, now=1001.0) is None
    assert heap_within_bound(cache)
    # Everything written before the clear is gone for good: nothing left
    # in the heap or the overlay refers to it.
    assert cache.get_scoped(name, RdataType.A, subnet, now=1061.0) is None
    assert cache.ecs_scoped_len() == 0
