"""Property-based tests for the DNS substrate (hypothesis)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Flags, Message, Opcode, Question, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import AAAA, A, CNAME, MX, NS, TXT, RdataType
from repro.dns.record import ResourceRecord, RRset
from repro.dns.ttl import TTL_MAX, format_ttl, parse_ttl
from repro.dns.wire import WireReader, WireWriter

label_alphabet = string.ascii_lowercase + string.digits + "-"

labels = st.text(alphabet=label_alphabet, min_size=1, max_size=12)
names = st.lists(labels, min_size=0, max_size=5).map(Name)
ttls = st.integers(min_value=0, max_value=TTL_MAX)

ipv4s = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: ".".join(str((n >> shift) & 0xFF) for shift in (24, 16, 8, 0))
)
ipv6s = st.integers(min_value=0, max_value=2**128 - 1).map(
    lambda n: f"2001:db8::{n & 0xFFFF:x}"
)

rdatas = st.one_of(
    ipv4s.map(A),
    ipv6s.map(AAAA),
    names.map(NS),
    names.map(CNAME),
    st.tuples(st.integers(min_value=0, max_value=65535), names).map(
        lambda t: MX(t[0], t[1])
    ),
    st.lists(
        st.text(alphabet=string.ascii_letters, max_size=40), min_size=0, max_size=3
    ).map(lambda chunks: TXT(tuple(chunks))),
)

records = st.builds(
    lambda name, ttl, rdata: ResourceRecord(name, rdata.rdtype, ttl, rdata),
    names,
    ttls,
    rdatas,
)


@given(names)
def test_name_text_round_trip(name):
    assert Name(str(name)) == name


@given(names)
def test_name_wire_round_trip(name):
    writer = WireWriter()
    writer.write_name(name)
    assert WireReader(writer.getvalue()).read_name() == name


@given(st.lists(names, min_size=1, max_size=6))
def test_many_names_wire_round_trip_with_compression(name_list):
    writer = WireWriter()
    for name in name_list:
        writer.write_name(name)
    reader = WireReader(writer.getvalue())
    assert [reader.read_name() for _ in name_list] == name_list


@given(st.lists(names, min_size=2, max_size=6))
def test_compression_never_grows(name_list):
    compressed = WireWriter()
    plain = WireWriter()
    for name in name_list:
        compressed.write_name(name)
        plain.write_name(name, compress=False)
    assert len(compressed.getvalue()) <= len(plain.getvalue())


@given(names, names)
def test_subdomain_antisymmetry(a, b):
    if a != b and a.is_subdomain_of(b):
        assert not b.is_subdomain_of(a)


@given(names)
def test_ancestors_chain_is_strictly_shorter(name):
    previous = len(name)
    for ancestor in name.lineage()[1:]:
        assert len(ancestor) == previous - 1
        previous = len(ancestor)


@given(records)
def test_record_wire_round_trip(record):
    writer = WireWriter()
    record.to_wire(writer)
    assert ResourceRecord.from_wire(WireReader(writer.getvalue())) == record


@given(records, st.integers(min_value=0, max_value=10**6))
def test_aging_never_negative_never_raises_ttl(record, age):
    aged = record.aged(age)
    assert 0 <= aged.ttl <= record.ttl


@settings(max_examples=50)
@given(
    st.integers(min_value=0, max_value=65535),
    st.sampled_from(list(Rcode)),
    st.booleans(),
    st.booleans(),
    names,
    st.lists(records, max_size=4),
    st.lists(records, max_size=3),
    st.lists(records, max_size=3),
)
def test_message_wire_round_trip(
    message_id, rcode, aa, rd, qname, answer, authority, additional
):
    message = Message(
        id=message_id,
        rcode=rcode,
        flags=Flags(qr=True, aa=aa, rd=rd),
        question=Question(qname, RdataType.A),
    )
    # One single-record RRset per drawn record: add() merges the ones that
    # share a key, exactly as decode groups them.
    for section, drawn in (
        (Section.ANSWER, answer),
        (Section.AUTHORITY, authority),
        (Section.ADDITIONAL, additional),
    ):
        message.add(section, *(
            RRset(record.name, record.rdtype, record.ttl, (record.rdata,), record.rdclass)
            for record in drawn
        ))
        assert len(list(message.records(section))) == len(drawn)
    decoded = Message.from_wire(message.to_wire())
    assert decoded.id == message.id
    assert decoded.rcode == message.rcode
    assert decoded.flags == message.flags
    assert decoded.question == message.question
    for section in Section:
        assert decoded.section(section) == message.section(section)
        assert list(decoded.records(section)) == list(message.records(section))


@given(ttls)
def test_format_parse_ttl_round_trip(ttl):
    assert parse_ttl(format_ttl(ttl)) == ttl
