"""RFC clauses on TTL semantics: one row per normative clause.

Each row names the RFC and section, quotes the clause, and holds a check
that runs against the production :class:`~repro.resolver.cache.Cache` and
against :class:`~tests.resolver.reference_cache.ScanReferenceCache`, so a
clause holds for the specification as well as for the fast path.
"""

from typing import Callable, NamedTuple

import pytest

from repro.dns.message import Message, Section
from repro.dns.name import Name
from repro.dns.rdtypes import NS, A, RdataClass, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility

from tests.conftest import soa_rrset
from tests.resolver.reference_cache import ScanReferenceCache

GONE = Name("gone.example.")
WWW = Name("www.example.")


class Clause(NamedTuple):
    id: str
    rfc: str
    quote: str
    check: Callable[[object], None]


def no_soa_is_not_cached(cache) -> None:
    for soa in (None, RRset(Name("example."), RdataType.SOA, 3600)):
        cache.put_negative(GONE, RdataType.A, True, 0.0, soa)
    assert len(cache) == 0
    assert cache.get_negative(GONE, RdataType.A, 0.0) is None


def negative_ttl_is_min_of_soa_ttl_and_minimum(cache) -> None:
    for start, (ttl, minimum) in enumerate(((3600, 900), (60, 900), (900, 900))):
        now = start * 10_000.0
        cache.put_negative(GONE, RdataType.A, False, now, soa_rrset(ttl=ttl, minimum=minimum))
        lifetime = min(ttl, minimum)
        entry = cache.get_negative(GONE, RdataType.A, now + lifetime - 1)
        assert entry is not None and entry.credibility is Credibility.NODATA
        assert entry.expires_at == now + lifetime
        assert cache.get_negative(GONE, RdataType.A, now + lifetime) is None


def lower_rank_never_replaces_live_higher_rank(cache) -> None:
    answer = RRset(WWW, RdataType.A, 3600, [A("192.0.2.1")])
    glue = RRset(WWW, RdataType.A, 3600, [A("198.51.100.9")])
    assert cache.put(answer, Credibility.AUTH_ANSWER, 0.0)
    for rank in (Credibility.ADDITIONAL, Credibility.NONAUTH_ANSWER,
                 Credibility.AUTH_AUTHORITY):
        assert cache.put(glue, rank, 10.0) is False
        entry = cache.get(WWW, RdataType.A, 10.0)
        assert entry.rrset is answer and entry.credibility is Credibility.AUTH_ANSWER


def zero_ttl_is_never_served(cache) -> None:
    rrset = RRset(WWW, RdataType.A, 0, [A("192.0.2.1")])
    for rank in (Credibility.AUTH_ANSWER, Credibility.ADDITIONAL):
        cache.put(rrset, rank, 100.0)
        for now in (100.0, 100.5, 101.0):
            assert cache.get(WWW, RdataType.A, now) is None


def top_bit_ttl_reads_as_zero(cache) -> None:
    query = Message.make_query("example.", RdataType.A, id=7)
    query.add(Section.ADDITIONAL, RRset(WWW, RdataType.A, 300, [A("192.0.2.1")]))
    blob = bytearray(query.to_wire())
    for wire_ttl, ttl in ((0x80000000, 0), (0xC000012C, 0), (0xFFFFFFFF, 0),
                          (0x7FFFFFFF, 0x7FFFFFFF)):
        blob[-10:-6] = wire_ttl.to_bytes(4, "big")  # TTL, RDLENGTH, 4-octet A
        (rrset,) = Message.from_wire(bytes(blob)).additional
        assert rrset.ttl == ttl
        cache.put(rrset, Credibility.AUTH_ANSWER, 0.0)
        assert (cache.get(WWW, RdataType.A, 0.0) is not None) == (ttl > 0)


def glue_link_follows_bailiwick(cache) -> None:
    cut = Name("sub.example.")
    inside, outside = Name("ns1.sub.example."), Name("ns1.other.example.")
    assert inside.in_bailiwick_of(cut) and cut.in_bailiwick_of(cut)
    assert not outside.in_bailiwick_of(cut)
    assert not Name("xsub.example.").in_bailiwick_of(cut)  # whole labels only
    ns = RRset(cut, RdataType.NS, 3600, [NS(inside), NS(outside)])
    cache.put(ns, Credibility.AUTHORITY, 0.0)
    for server in (inside, outside):
        # The resolver's glue-link rule: only in-bailiwick glue is tied to
        # the NS set it arrived with.
        linked = (cut, RdataType.NS, RdataClass.IN) if server.in_bailiwick_of(cut) else None
        glue = RRset(server, RdataType.A, 7200, [A("192.0.2.53")])
        assert cache.put(glue, Credibility.ADDITIONAL, 0.0, linked_to=linked)
    cache.put(ns, Credibility.AUTH_ANSWER, 10.0)  # the child's own NS set
    assert cache.get(inside, RdataType.A, 11.0) is None
    assert cache.get(outside, RdataType.A, 11.0) is not None


CLAUSES = [
    Clause(
        "rfc2308-5-no-soa", "RFC 2308 §5",
        "Negative responses without SOA records SHOULD NOT be cached as there is "
        "no way to prevent the negative responses looping forever between a pair "
        "of servers even with a TTL of zero.",
        no_soa_is_not_cached,
    ),
    Clause(
        "rfc2308-5-negative-ttl", "RFC 2308 §5",
        "When the authoritative server creates this record its TTL is taken from "
        "the minimum of the SOA.MINIMUM field and SOA's TTL.",
        negative_ttl_is_min_of_soa_ttl_and_minimum,
    ),
    Clause(
        "rfc2181-5.4.1-ranking", "RFC 2181 §5.4.1",
        "An authoritative answer from a reply should replace cached data that had "
        "been obtained from additional information in an earlier reply.  However "
        "additional information from a reply will be ignored if the cache contains "
        "data from an authoritative answer or a zone file.",
        lower_rank_never_replaces_live_higher_rank,
    ),
    Clause(
        "rfc1035-3.2.1-zero-ttl", "RFC 1035 §3.2.1",
        "Zero values are interpreted to mean that the RR can only be used for the "
        "transaction in progress, and should not be cached.",
        zero_ttl_is_never_served,
    ),
    Clause(
        "rfc2181-8-top-bit-ttl", "RFC 2181 §8",
        "Implementations should treat a TTL value received which has the most "
        "significant bit set as if the entire value received was zero.",
        top_bit_ttl_reads_as_zero,
    ),
    Clause(
        "rfc8499-7-in-bailiwick", "RFC 8499 §7",
        "In-bailiwick: (a) An adjective to describe a name server whose name is "
        "either subordinate to or (rarely) the same as the owner name of the NS "
        "resource records.",
        glue_link_follows_bailiwick,
    ),
]


@pytest.mark.parametrize("make_cache", [Cache, ScanReferenceCache],
                         ids=["cache", "reference"])
@pytest.mark.parametrize("clause", CLAUSES, ids=[clause.id for clause in CLAUSES])
def test_clause(clause, make_cache):
    clause.check(make_cache())
