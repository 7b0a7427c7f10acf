"""Differential tests: the heap-based cache vs an O(n)-scan reference.

The production :class:`~repro.resolver.cache.Cache` keeps its maintenance
O(log n) with a lazy expiry heap and rewrites entries in place.  That
machinery is an optimisation only: observable behaviour must match the
specification, which :mod:`tests.resolver.reference_cache` states in its
simplest possible form — an eager O(n)-scan reference model with no heap
and no generation index beyond a counter.  Hypothesis drives both
implementations through the same operation sequences and every return
value, statistic, membership snapshot and collected metric must agree,
with or without a size bound.

The ECS overlay gets the same treatment: the reference keeps each key's
scoped answers in a plain list it filters and scans on every touch
(the production code before it grew per-prefix-length tables), and the
returned ``(rrset, scope)``, the entry count and the two ECS instruments
must agree after every operation.

The write path is driven hardest, because it is where the production
cache is cleverest: a key's entry object is rewritten in place on renewal.
The op language renews keys on purpose — after expiry, with the same
rdatas and with new ones, at every credibility, pinned, linked, re-linked
under a new NS generation, between ``refresh_expiry``/``expire_now`` —
and after every operation the full membership and the expiry heap's bound
are compared.  Every entry a ``get`` or ``get_negative`` returns is also
*stamped* — held with its ``generation`` and ``expires_at``, as the
serve-path memo holds it — and after every later operation a stamp that
still validates must be the key's entry in the cache and vouch for what
the reference holds there: the same rdatas, credibility and expiry.

The heap indexes a positive entry's expiry only once a refresh-ahead
reader has asked, so the op language lets that reader arrive at any
point — before the first write or after positives, refreshes and
negatives already exist — and its ``(key, expires_at)`` pairs must be the
reference's scan, in non-decreasing expiry order.

A negative answer (RFC 2308) is the key's one entry, the empty RRset at
rank ``NXDOMAIN`` or ``NODATA`` below glue: it takes the key's slot
whatever held it, any data replaces it, it counts toward ``max_entries``,
nothing serves it stale, and every write ends by dropping the expired
ones before it evicts.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dns.ecs import ClientSubnet
from repro.dns.name import Name
from repro.dns.rdtypes import SOA, A, RdataClass, RdataType
from repro.dns.record import RRset
from repro.metrics import MetricsRegistry
from repro.resolver.cache import Cache, CacheEntry, CacheStats, Credibility

from tests.conftest import soa_rrset
from tests.resolver.reference_cache import ScanReferenceCache

# A small closed world keeps collisions (refreshes, link chains, downgrades)
# frequent enough for hypothesis to exercise every replacement rule.
NAMES = [Name(f"n{i}.example") for i in range(5)]
QTYPE = RdataType.A


# -- operation language -------------------------------------------------------

# Scoped answers: both families, a pool small enough that networks
# collide at the wider scopes, one subnet per family whose source prefix
# is shorter than some cached scopes (it must not match those).
SUBNETS = [
    ClientSubnet.from_ip("198.18.0.0", 24),
    ClientSubnet.from_ip("198.18.1.0", 24),
    ClientSubnet.from_ip("198.19.0.0", 24),
    ClientSubnet.from_ip("10.0.0.0", 24),
    ClientSubnet.from_ip("198.18.0.0", 16),
    ClientSubnet.from_ip("2001:db8::", 56),
    ClientSubnet.from_ip("2001:db8:0:100::", 56),
    ClientSubnet.from_ip("2001:db9::", 56),
    ClientSubnet.from_ip("2001:db8::", 24),
]
SCOPES = (8, 16, 24, 56)

name_ix = st.integers(min_value=0, max_value=len(NAMES) - 1)
subnet_ix = st.integers(min_value=0, max_value=len(SUBNETS) - 1)
ttls = st.integers(min_value=0, max_value=500)
#: Data ranks only: the ranks below glue are written by ``put_negative``.
credibilities = st.sampled_from([c for c in Credibility if c >= Credibility.ADDITIONAL])
deltas = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)

operations = st.one_of(
    st.tuples(
        st.just("put"), name_ix, ttls, credibilities, st.booleans(),
        st.one_of(st.none(), name_ix),  # linked_to target
    ),
    st.tuples(st.just("get"), name_ix, credibilities),
    st.tuples(st.just("peek"), name_ix),
    st.tuples(st.just("stale"), name_ix),
    st.tuples(st.just("put_neg"), name_ix, st.booleans(), ttls),
    st.tuples(st.just("get_neg"), name_ix),
    st.tuples(st.just("refresh"), name_ix),
    st.tuples(st.just("expire"), name_ix),
    # A renewal on purpose: step past the key's expiry (or not), then write
    # it again with the rdatas it holds or with new ones.
    st.tuples(
        st.just("renew"), name_ix, st.booleans(), st.booleans(), ttls, credibilities,
        st.booleans(), st.one_of(st.none(), name_ix),
    ),
    # Glue re-put under a *new* generation of its NS set: write the target
    # at top rank (always replaces), then the dependent linked to it.
    st.tuples(st.just("relink"), name_ix, name_ix, ttls, credibilities),
    # Draws a scope the subnet cannot carry too: clamped to its source
    # prefix when driven.  TTLs share ``ttls`` with ``advance``'s deltas,
    # so scoped answers expire mid-sequence.
    st.tuples(st.just("put_scoped"), name_ix, subnet_ix, st.sampled_from(SCOPES), ttls),
    st.tuples(st.just("get_scoped"), name_ix, subnet_ix),
    # The refresh-ahead reader: its first call starts indexing positives.
    st.tuples(st.just("due"), st.floats(min_value=0.0, max_value=600.0, allow_nan=False)),
    st.tuples(st.just("advance"), deltas),
)


def _snapshot(entry: Optional[CacheEntry]):
    """The observable projection of an entry (internal bookkeeping omitted;
    generations number differently, so a link shows its target key only)."""
    if entry is None:
        return None
    return (
        entry.rrset.name,
        entry.rrset.rdtype,
        entry.rrset.ttl,
        tuple(str(r) for r in entry.rrset.rdatas),
        entry.credibility,
        entry.inserted_at,
        entry.expires_at,
        entry.pinned,
        None if entry.linked_to is None else entry.linked_to[0],
    )


def _heap_within_bound(cache: Cache) -> bool:
    """One record shape, ``(expires_at, seq, key, generation)`` with an
    ``int`` generation, and at most four records per cached entry."""
    heap = cache._expiry_heap
    return len(heap) <= 64 + 4 * len(cache) and all(type(r[3]) is int for r in heap)


def _stats_tuple(stats: CacheStats):
    return (
        stats.hits,
        stats.misses,
        stats.expired,
        stats.stale_hits,
        stats.inserts,
        stats.refused_downgrades,
        stats.evictions,
        stats.negative_hits,
        stats.negative_misses,
        stats.size_peak,
    )


def _key(ix):
    return (NAMES[ix], QTYPE, RdataClass.IN)


def _stamps_hold(real: Cache, reference: ScanReferenceCache, stamps, compare_membership):
    """A stamp that still validates is the key's entry object and vouches
    for what the reference holds there; a retired object never validates."""
    for holder, generation, expires_at, rdatas, credibility in stamps:
        if holder.generation != generation or holder.expires_at != expires_at:
            continue
        name, rdtype, _ = holder.key()
        assert real.peek(name, rdtype) is holder
        if compare_membership:
            held = reference.peek(name, rdtype)
            assert (tuple(held.rrset.rdatas), held.credibility, held.expires_at) == (
                rdatas, credibility, expires_at,
            )


def _drive(
    real: Cache, reference: ScanReferenceCache, ops, *, registries, compare_membership
):
    #: ``(entry, generation, expires_at, rdatas, credibility)`` per hit.
    stamps: list = []
    now = 0.0
    octet = 0

    def put_both(rrset, cred, linked=None, pin=False):
        assert real.put(rrset, cred, now=now, linked_to=linked, pin=pin) == \
            reference.put(rrset, cred, now=now, linked_to=linked, pin=pin)

    for op in ops:
        kind = op[0]
        if kind == "put":
            _, ix, ttl, cred, pin, link_ix = op
            octet += 1
            rrset = RRset(NAMES[ix], QTYPE, ttl, [A(f"192.0.2.{octet % 256}")])
            put_both(rrset, cred, _key(link_ix) if link_ix is not None else None, pin)
        elif kind == "renew":
            _, ix, past_expiry, same_rdatas, ttl, cred, pin, link_ix = op
            held = reference.peek(NAMES[ix], QTYPE)
            octet += 1
            rdatas = [A(f"192.0.2.{octet % 256}")]
            if held is not None:
                if past_expiry:
                    now = max(now, held.expires_at)
                if same_rdatas and held.rrset.rdatas:  # a negative holds none
                    rdatas = held.rrset.rdatas
            rrset = RRset(NAMES[ix], QTYPE, ttl, rdatas)
            put_both(rrset, cred, _key(link_ix) if link_ix is not None else None, pin)
        elif kind == "relink":
            _, glue_ix, ns_ix, ttl, cred = op
            octet += 2
            put_both(
                RRset(NAMES[ns_ix], QTYPE, ttl, [A(f"192.0.2.{octet % 256}")]),
                Credibility.AUTH_ANSWER,
            )
            put_both(
                RRset(NAMES[glue_ix], QTYPE, ttl, [A(f"192.0.2.{(octet + 1) % 256}")]),
                cred,
                _key(ns_ix),
            )
        elif kind == "get":
            _, ix, min_cred = op
            got = real.get(NAMES[ix], QTYPE, now=now, min_credibility=min_cred)
            assert _snapshot(got) == _snapshot(
                reference.get(NAMES[ix], QTYPE, now=now, min_credibility=min_cred)
            )
            if got is not None:
                stamps.append((got, got.generation, got.expires_at,
                               tuple(got.rrset.rdatas), got.credibility))
        elif kind == "peek":
            if compare_membership:
                assert _snapshot(real.peek(NAMES[op[1]], QTYPE)) == _snapshot(
                    reference.peek(NAMES[op[1]], QTYPE)
                )
        elif kind == "stale":
            if compare_membership:
                assert _snapshot(real.get_stale(NAMES[op[1]], QTYPE)) == _snapshot(
                    reference.get_stale(NAMES[op[1]], QTYPE)
                )
        elif kind == "put_neg":
            _, ix, nxdomain, ttl = op
            # min(SOA TTL, SOA MINIMUM) is the negative TTL: both are ``ttl``.
            rdata = SOA(Name("ns.example"), Name("h.example"), 1, 7200, 3600, 86400, ttl)
            soa = RRset(Name("example"), RdataType.SOA, ttl, [rdata])
            real.put_negative(NAMES[ix], QTYPE, nxdomain, now=now, soa=soa)
            reference.put_negative(NAMES[ix], QTYPE, nxdomain, now=now, soa=soa)
        elif kind == "get_neg":
            got = real.get_negative(NAMES[op[1]], QTYPE, now=now)
            assert _snapshot(got) == _snapshot(
                reference.get_negative(NAMES[op[1]], QTYPE, now=now)
            )
            if got is not None:
                stamps.append((got, got.generation, got.expires_at, (), got.credibility))
        elif kind == "refresh":
            real.refresh_expiry(_key(op[1]), now=now)
            reference.refresh_expiry(_key(op[1]), now=now)
        elif kind == "expire":
            real.expire_now(_key(op[1]), now=now)
            reference.expire_now(_key(op[1]), now=now)
        elif kind == "put_scoped":
            _, ix, sub_ix, scope, ttl = op
            octet += 1
            subnet = SUBNETS[sub_ix]
            scope = min(scope, subnet.source_prefix)
            rrset = RRset(NAMES[ix], QTYPE, ttl, [A(f"203.0.113.{octet % 256}")])
            real.put_scoped(rrset, subnet, scope, now=now)
            reference.put_scoped(rrset, subnet, scope, now=now)
        elif kind == "get_scoped":
            got = real.get_scoped(NAMES[op[1]], QTYPE, SUBNETS[op[2]], now=now)
            expected = reference.get_scoped(NAMES[op[1]], QTYPE, SUBNETS[op[2]], now=now)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.rrset is expected.rrset
                assert got.scope == expected.scope
                assert got.aged_rrset(now).ttl == int(expected.expires_at - now)
        elif kind == "due":
            due = real.due_expirations(now=now, horizon=op[1])
            assert Counter(due) == Counter(reference.due_expirations(now=now, horizon=op[1]))
            assert [at for _, at in due] == sorted(at for _, at in due)
        elif kind == "advance":
            now += op[1]
        # The overlay is outside ``max_entries``, so it is compared in full
        # even where global membership legally differs.
        assert real.ecs_scoped_len() == reference.ecs_scoped_len()
        assert real.ecs_scoped_len() == sum(1 for _ in real.scoped_entries())
        collected, expected = (registry.snapshot() for registry in registries)
        for metric in ("ecs.scope_merges", "cache.ecs_scoped_entries"):
            assert collected.value(metric) == expected.value(metric)
        assert real.stats.hits == reference.stats.hits
        assert real.stats.inserts == reference.stats.inserts
        assert _heap_within_bound(real)
        _stamps_hold(real, reference, stamps, compare_membership)
        if compare_membership:
            assert len(real) == len(reference)
            assert _stats_tuple(real.stats) == _stats_tuple(reference.stats)
            assert collected == expected
            for name in NAMES:
                assert _snapshot(real.peek(name, QTYPE)) == _snapshot(
                    reference.peek(name, QTYPE)
                )
    return now


def _caches(**options):
    """A production cache and a reference built alike, each collected by
    its own registry."""
    registries = (MetricsRegistry(), MetricsRegistry())
    real = Cache(metrics=registries[0], **options)
    return real, ScanReferenceCache(metrics=registries[1], **options), registries


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, max_size=40))
@example(
    # The reader arrives after a positive, a refresh and a negative: the
    # first read indexes what is cached, and later writes are indexed.
    ops=[
        ("put", 0, 100, Credibility.AUTH_ANSWER, False, None),
        ("put_neg", 1, True, 50),
        ("advance", 50.0),
        ("refresh", 0),
        ("due", 400.0),
        ("put", 2, 100, Credibility.AUTH_ANSWER, False, None),
        ("due", 400.0),
    ],
)
@example(
    # A refresh leaves n0 a record at each expiry; the feed reports it once.
    ops=[
        ("due", 10.0),
        ("put", 0, 100, Credibility.AUTH_ANSWER, False, None),
        ("advance", 50.0),
        ("refresh", 0),
        ("due", 400.0),
    ],
)
@example(
    # expire_now cuts n0's life short: its first record reports nothing.
    ops=[
        ("due", 10.0),
        ("put", 0, 100, Credibility.AUTH_ANSWER, False, None),
        ("advance", 50.0),
        ("expire", 0),
        ("due", 400.0),
    ],
)
def test_unbounded_cache_matches_scan_reference(ops):
    """With no size bound, every observable — return values, membership,
    statistics — is identical between the heap cache and the eager scans."""
    real, reference, registries = _caches()
    _drive(real, reference, ops, registries=registries, compare_membership=True)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(operations, max_size=40),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=30),
)
def test_clamped_cache_matches_scan_reference(ops, max_ttl, min_ttl):
    """TTL clamping composes identically with every other rule."""
    real, reference, registries = _caches(max_ttl=max_ttl, min_ttl=min_ttl)
    _drive(real, reference, ops, registries=registries, compare_membership=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(operations, max_size=40), st.integers(min_value=1, max_value=4))
@example(
    # n1's write overflows with n3 and n2 both dead: the victim is n3, the
    # less recently written, not n2, whose expiry the heap surfaces first.
    ops=[("put", 0, 0, Credibility.ADDITIONAL, False, None)] * 4 + [
        ("relink", 0, 3, 1, Credibility.ADDITIONAL),
        ("relink", 0, 2, 0, Credibility.ADDITIONAL),
        ("advance", 1.0),
        ("relink", 0, 1, 0, Credibility.ADDITIONAL),
        ("put", 0, 0, Credibility.ADDITIONAL, False, None),
        ("put", 0, 1, Credibility.ADDITIONAL, False, 2),
    ],
    max_entries=3,
)
@example(
    # A negative entry counts toward the bound, and a hit on it is only a
    # read: n2's write evicts the negative n0, the least recently written,
    # though n0 was read after n1 was written.
    ops=[
        ("put_neg", 0, True, 100),
        ("put", 1, 100, Credibility.ADDITIONAL, False, None),
        ("get_neg", 0),
        ("put", 2, 100, Credibility.ADDITIONAL, False, None),
    ],
    max_entries=2,
)
@example(
    # A positive hit is only a read too: n2's write evicts n0, read after
    # n1 was written.
    ops=[
        ("put", 0, 100, Credibility.ADDITIONAL, False, None),
        ("put", 1, 100, Credibility.ADDITIONAL, False, None),
        ("get", 0, Credibility.ADDITIONAL),
        ("put", 2, 100, Credibility.ADDITIONAL, False, None),
    ],
    max_entries=2,
)
def test_bounded_cache_matches_scan_reference_aggregates(ops, max_entries):
    """Under a bound both evict by one rule — the least recently written
    entry goes, dead or pinned alike — so membership, every return value
    and the full statistics agree."""
    real, reference, registries = _caches(max_entries=max_entries)
    _drive(real, reference, ops, registries=registries, compare_membership=True)
    assert len(real) <= max_entries
    assert _stats_tuple(real.stats) == _stats_tuple(reference.stats)


@settings(max_examples=100, deadline=None)
@given(st.lists(operations, max_size=40), st.integers(min_value=1, max_value=4))
def test_bounded_cache_eviction_counts_match(ops, max_entries):
    """Both implementations evict exactly the overflow per put, so the
    running eviction count is identical."""
    real = Cache(max_entries=max_entries)
    reference = ScanReferenceCache(max_entries=max_entries)
    now = 0.0
    octet = 0
    for op in ops:
        if op[0] == "put":
            _, ix, ttl, cred, pin, link_ix = op
            octet += 1
            rrset = RRset(NAMES[ix], QTYPE, ttl, [A(f"192.0.2.{octet % 256}")])
            linked = _key(link_ix) if link_ix is not None else None
            real.put(rrset, cred, now=now, linked_to=linked, pin=pin)
            reference.put(rrset, cred, now=now, linked_to=linked, pin=pin)
            assert real.stats.evictions == reference.stats.evictions
            assert len(real) == len(reference)
        elif op[0] == "advance":
            now += op[1]


def test_entry_held_across_a_renewal_is_the_renewed_entry():
    """A key keeps one entry object while it stays cached, so a reference
    held across a rewrite shows the new generation, the new link state and
    an aged view of the new data — never a mix of old and new."""
    cache = Cache()
    ns = RRset(NAMES[0], QTYPE, 300, [A("192.0.2.1")])
    cache.put(ns, Credibility.AUTHORITY, now=0.0)
    cache.put(
        RRset(NAMES[1], QTYPE, 300, [A("192.0.2.2")]),
        Credibility.ADDITIONAL, now=0.0, linked_to=_key(0), pin=True,
    )
    held = cache.peek(NAMES[1], QTYPE)
    old_generation = held.generation
    target = cache.peek(NAMES[0], QTYPE)
    assert held.linked_to == (_key(0), target, target.generation)
    assert held.linked_to[1] is target  # the entry itself, not a copy
    assert held.aged_rrset(250.0).ttl == 50  # memoizes a 50 s view of the old data

    renewed = RRset(NAMES[1], QTYPE, 60, [A("192.0.2.99")])
    assert cache.put(renewed, Credibility.AUTH_ANSWER, now=400.0)

    assert cache.peek(NAMES[1], QTYPE) is held
    assert held.generation > old_generation
    assert held.rrset is renewed and held.credibility is Credibility.AUTH_ANSWER
    assert (held.inserted_at, held.expires_at) == (400.0, 460.0)
    assert held.linked_to is None and not held.pinned
    aged = held.aged_rrset(410.0)
    assert (aged.ttl, aged.rdatas) == (50, renewed.rdatas)
    # The link went with the old generation: rewriting the NS set now must
    # not touch the renewed (unlinked) entry's liveness.
    cache.put(ns, Credibility.AUTH_ANSWER, now=410.0)
    assert cache.get(NAMES[1], QTYPE, now=411.0) is held


@pytest.mark.parametrize("retire", ["evict", "put_negative", "clear"])
def test_a_link_to_a_retired_target_stays_dead_once_its_key_is_recreated(retire):
    """A link holds its target entry, not a key to look up: the target's
    retirement is what kills the link, and the key's next entry — a new
    write, so a new generation — never revives it."""
    cache = Cache(max_entries=3 if retire == "evict" else None)
    ns = RRset(NAMES[0], QTYPE, 300, [A("192.0.2.1")])
    glue = RRset(NAMES[1], QTYPE, 300, [A("192.0.2.2")])
    cache.put(ns, Credibility.AUTHORITY, now=0.0)
    cache.put(RRset(NAMES[2], QTYPE, 300, [A("192.0.2.3")]), Credibility.AUTHORITY, now=0.0)
    cache.put(glue, Credibility.ADDITIONAL, now=0.0, linked_to=_key(0))
    linking = cache.peek(NAMES[1], QTYPE)
    _, target, generation = linking.linked_to
    assert cache.get_entry(_key(1), now=1.0) is linking

    if retire == "evict":  # the NS set is the least recently written
        cache.put(RRset(NAMES[3], QTYPE, 300, [A("192.0.2.4")]), Credibility.AUTHORITY, now=2.0)
    elif retire == "put_negative":
        cache.put_negative(NAMES[0], QTYPE, False, 2.0, soa_rrset())
    else:
        cache.clear()
    assert target.generation != generation and cache.peek(NAMES[0], QTYPE) is not target

    cache.put(ns, Credibility.AUTH_ANSWER, now=3.0)
    recreated = cache.get_entry(_key(0), now=4.0)
    assert recreated is not None and recreated is not target
    if retire == "clear":  # the linking entry went with everything else
        assert cache.peek(NAMES[1], QTYPE) is None and linking.linked_to[1] is target
        return
    # Still cached, still linked to the retired entry: dead to the read ...
    assert cache.peek(NAMES[1], QTYPE) is linking and linking.linked_to[1] is target
    expired = cache.stats.expired
    assert cache.get_entry(_key(1), now=4.0) is None
    assert cache.stats.expired == expired + 1
    # ... and to the write: equal-rank glue replaces it, as only a dead
    # entry's may be.
    assert cache.put(glue, Credibility.ADDITIONAL, now=5.0)
