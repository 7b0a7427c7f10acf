"""Property-based tests for Zone lookup semantics (hypothesis).

Random zones are generated under one origin with optional delegations and
wildcards; lookups must classify every name consistently and never crash.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import AAAA, A, CNAME, NS, RdataType
from repro.dns.zone import LookupStatus, Zone, ZoneError

labels = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

relative_names = st.lists(labels, min_size=1, max_size=3)


@st.composite
def zones_and_probes(draw):
    origin = Name("zone.test.")
    zone = Zone(origin, default_ttl=3600)
    zone.add_soa("ns.zone.test.")
    zone.add(origin, RdataType.NS, NS("ns.zone.test."))
    zone.add("ns.zone.test.", RdataType.A, A("192.0.2.53"))

    hosts = draw(st.lists(relative_names, min_size=0, max_size=5))
    for index, rel in enumerate(hosts):
        owner = Name(rel).concatenate(origin)
        zone.add(owner, RdataType.A, A(f"192.0.2.{(index + 10) % 250}"))

    cuts = draw(st.lists(relative_names, min_size=0, max_size=2))
    cut_names = []
    for rel in cuts:
        owner = Name(rel).concatenate(origin)
        if owner == origin:
            continue
        zone.add(owner, RdataType.NS, NS("ns.elsewhere.example."))
        cut_names.append(owner)

    probes = draw(st.lists(relative_names, min_size=1, max_size=5))
    probe_names = [Name(rel).concatenate(origin) for rel in probes]
    # Also probe the exact owners we created.
    probe_names.extend(Name(rel).concatenate(origin) for rel in hosts[:2])
    return zone, cut_names, probe_names


@settings(max_examples=150)
@given(zones_and_probes())
def test_lookup_classification_consistent(data):
    zone, cuts, probes = data
    for name in probes:
        result = zone.lookup(name, RdataType.A)
        under_cut = any(
            name.is_subdomain_of(cut) for cut in cuts
        )
        if result.status is LookupStatus.DELEGATION:
            # Only names at/below a configured cut may be referred, and the
            # referral owner must be one of the cuts enclosing the name.
            assert under_cut
            assert result.rrsets[0].name in cuts
            assert name.is_subdomain_of(result.rrsets[0].name)
        elif result.status is LookupStatus.ANSWER:
            assert not under_cut
            assert result.rrsets[0].name == name
        elif result.status is LookupStatus.NODATA:
            assert zone.name_exists(name)
        elif result.status is LookupStatus.NXDOMAIN:
            assert not zone.name_exists(name)


@settings(max_examples=100)
@given(zones_and_probes())
def test_respond_never_crashes_and_rcode_matches(data):
    zone, _, probes = data
    for name in probes:
        for qtype in (RdataType.A, RdataType.NS, RdataType.MX):
            response = zone.respond(Message.make_query(name, qtype))
            assert response.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN)
            if response.rcode == Rcode.NXDOMAIN:
                assert not response.answer


@settings(max_examples=100)
@given(zones_and_probes())
def test_respond_wire_round_trips(data):
    zone, _, probes = data
    for name in probes[:2]:
        response = zone.respond(Message.make_query(name, RdataType.A))
        decoded = Message.from_wire(response.to_wire())
        assert decoded.rcode == response.rcode
        assert len(decoded.answer) == len(response.answer)


# ------------------------------------------------------- compiled ≡ cold
#
# Zone.respond compiles each answer body once and every mutator drops the
# table.  The reference is not a switch on the zone but another zone: the
# same mutations replayed into a fresh Zone that has never been asked
# anything, so every one of its answers is compiled on the spot.

ORIGIN = "zone.test."
OWNERS = [
    "zone.test.", "www.zone.test.", "a.b.zone.test.", "*.wild.zone.test.",
    "sub.zone.test.", "ns.sub.zone.test.", "alias.zone.test.", "hop.zone.test.",
    "other.example.",  # out of zone: the mutators must refuse it on both sides
]
QNAMES = OWNERS + [
    "b.zone.test.",  # empty non-terminal once a.b exists: NODATA
    "foo.wild.zone.test.", "bar.wild.zone.test.",  # wildcard matches
    "x.sub.zone.test.", "deep.x.sub.zone.test.",  # under the cut
    "nope.zone.test.",  # NXDOMAIN
]
RDATAS = {
    RdataType.A: [A("192.0.2.1"), A("192.0.2.2"), A("192.0.2.3")],
    RdataType.AAAA: [AAAA("2001:db8::1"), AAAA("2001:db8::2")],
    RdataType.NS: [
        NS("ns.sub.zone.test."), NS("ns.zone.test."), NS("ns.elsewhere.example.")
    ],
    RdataType.CNAME: [
        CNAME("www.zone.test."), CNAME("hop.zone.test."),
        CNAME("alias.zone.test."), CNAME("out.example."),
    ],
}
QTYPES = [*RDATAS, RdataType.MX, RdataType.SOA, RdataType.RRSIG]

some_ttls = st.sampled_from([None, 0, 60, 300, 86400])
questions = st.tuples(
    st.sampled_from(QNAMES),
    st.sampled_from(QTYPES),
    st.integers(min_value=0, max_value=0xFFFF),
    st.booleans(),
)


@st.composite
def mutations(draw, zone):
    """One mutator call, aimed mostly at what the zone holds (a set_ttl or
    remove of a missing set exercises only the refusal)."""
    kind = draw(st.sampled_from(["add", "replace", "remove", "set_ttl"]))
    held = [(str(rrset.name), rrset.rdtype) for rrset in zone.rrsets()]
    keys = st.tuples(st.sampled_from(OWNERS), st.sampled_from(list(RDATAS)))
    if kind in ("remove", "set_ttl"):
        keys = st.one_of(st.sampled_from(held), keys)
    owner, rdtype = draw(keys)
    if kind == "remove":
        return (kind, owner, rdtype)
    if kind == "set_ttl":
        return (kind, owner, rdtype, draw(st.sampled_from([0, 30, 7200])))
    rdata = draw(
        st.lists(st.sampled_from(RDATAS[rdtype]), min_size=1, max_size=2, unique=True)
    )
    return (kind, owner, rdtype, rdata, draw(some_ttls))


def mutate(zone, mutation):
    """Apply one mutation; the outcome (refusals included) as a value."""
    kind, *args = mutation
    try:
        return getattr(zone, kind)(*args)
    except ZoneError as refusal:
        return str(refusal)


def base_zone():
    zone = Zone(ORIGIN, default_ttl=3600)
    zone.add_soa("ns.zone.test.")
    zone.add(ORIGIN, RdataType.NS, NS("ns.zone.test."))
    zone.add("ns.zone.test.", RdataType.A, A("192.0.2.53"))
    zone.add("www.zone.test.", RdataType.A, A("192.0.2.80"), ttl=300)
    zone.add("*.wild.zone.test.", RdataType.A, A("192.0.2.81"), ttl=60)
    zone.add("alias.zone.test.", RdataType.CNAME, CNAME("www.zone.test."), ttl=120)
    zone.add("sub.zone.test.", RdataType.NS, NS("ns.sub.zone.test."), ttl=1800)
    zone.add("ns.sub.zone.test.", RdataType.A, A("192.0.2.99"), ttl=1800)
    return zone


def assert_answers_as_cold(zone, cold, question, bound):
    qname, qtype, query_id, rd = question
    query = Message.make_query(qname, qtype, id=query_id, recursion_desired=rd)
    expected = cold.respond(query)
    assert expected.id == query_id and expected.flags.rd == rd
    first, again = zone.respond(query), zone.respond(query)
    assert first == expected
    assert again == expected
    assert len(zone.compiled) <= bound
    # A kept answer is shared: a plain query (ID 0, RD clear) gets the one
    # response, any other a message of its own over the same sections.
    kept = (Name(qname), qtype) in zone.compiled
    assert (first is again) == (kept and query_id == 0 and not rd)
    for section in Section:
        # Sections are tuples no receiver can change ...
        assert type(first.section(section)) is tuple
        assert (first.section(section) is again.section(section)) or not kept
        # ... and what they hold is the zone's own objects.
        for rrset in first.section(section):
            stored = zone.get(rrset.name, rrset.rdtype)
            if stored is not None and rrset.rdtype != RdataType.RRSIG:
                assert rrset is stored


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 1024]))
def test_compiled_answers_equal_a_fresh_zones(data, bound):
    """Interleave mutations and questions; after every step, every question
    asked so far is asked again (that is what finds a body that outlived
    the data it was compiled from) and must equal the cold zone's answer."""
    from repro.dns import zone as zone_module

    saved = zone_module._COMPILED_MAX
    zone_module._COMPILED_MAX = bound  # small bounds exercise reset-when-full
    try:
        zone = base_zone()
        history, outcomes, asked = [], [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            if data.draw(st.booleans()):
                asked.append(data.draw(questions))
            else:
                history.append(data.draw(mutations(zone)))
                outcomes.append(mutate(zone, history[-1]))
            cold = base_zone()
            assert [mutate(cold, mutation) for mutation in history] == outcomes
            for question in asked:
                assert_answers_as_cold(zone, cold, question, bound)
    finally:
        zone_module._COMPILED_MAX = saved
