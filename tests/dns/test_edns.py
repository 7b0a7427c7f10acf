"""EDNS0 (RFC 6891) and RFC 3597 unknown-type handling.

A live server faces real stub resolvers: nearly every modern query
carries an OPT record, and any 16-bit type code can appear on the wire.
Neither may crash the codec, and the OPT's payload negotiation must
round-trip exactly.
"""

import struct

import pytest

from repro.dns.message import (
    CLASSIC_UDP_PAYLOAD,
    DEFAULT_EDNS_PAYLOAD,
    Edns,
    Message,
    Section,
)
from repro.dns.name import Name
from repro.dns.rdtypes import A, OpaqueRdata, RdataClass, RdataType
from repro.dns.record import RRset
from repro.dns.wire import WireError


def test_opt_round_trip():
    query = Message.make_query("www.example.com.", RdataType.A, id=7)
    query.use_edns(udp_payload=1232, dnssec_ok=True)
    back = Message.from_wire(query.to_wire())
    assert back.edns == Edns(udp_payload=1232, dnssec_ok=True)
    assert back.udp_payload_limit == 1232
    assert back.additional == []  # OPT is a sidecar, not a record


def test_opt_arcount_includes_pseudo_record():
    query = Message.make_query("example.com.", RdataType.A).use_edns()
    wire = query.to_wire()
    arcount = struct.unpack_from(">H", wire, 10)[0]
    assert arcount == 1


def test_no_edns_means_classic_512_limit():
    query = Message.make_query("example.com.", RdataType.A)
    back = Message.from_wire(query.to_wire())
    assert back.edns is None
    assert back.udp_payload_limit == CLASSIC_UDP_PAYLOAD


def test_tiny_advertised_payload_is_floored_at_512():
    assert Edns(udp_payload=100).effective_payload == CLASSIC_UDP_PAYLOAD
    assert Edns(udp_payload=4096).effective_payload == 4096


def test_use_edns_default_payload():
    query = Message.make_query("example.com.", RdataType.A).use_edns()
    assert query.edns is not None
    assert query.edns.udp_payload == DEFAULT_EDNS_PAYLOAD


def test_duplicate_opt_rejected():
    query = Message.make_query("example.com.", RdataType.A).use_edns()
    wire = bytearray(query.to_wire())
    opt = wire[-11:]  # root label + fixed OPT fields, empty rdata
    wire += opt
    struct.pack_into(">H", wire, 10, 2)  # arcount = 2
    with pytest.raises(WireError):
        Message.from_wire(bytes(wire))


def test_opt_with_nonroot_owner_rejected():
    query = Message.make_query("example.com.", RdataType.A)
    wire = bytearray(query.to_wire())
    # Hand-craft an OPT owned by "x." instead of the root.
    wire += b"\x01x\x00" + struct.pack(">HHIH", 41, 1232, 0, 0)
    struct.pack_into(">H", wire, 10, 1)
    with pytest.raises(WireError):
        Message.from_wire(bytes(wire))


def test_unsupported_edns_version_rejected():
    query = Message.make_query("example.com.", RdataType.A)
    wire = bytearray(query.to_wire())
    ttl = 1 << 16  # version 1
    wire += b"\x00" + struct.pack(">HHIH", 41, 1232, ttl, 0)
    struct.pack_into(">H", wire, 10, 1)
    with pytest.raises(WireError):
        Message.from_wire(bytes(wire))


def test_opt_options_preserved():
    options = struct.pack(">HH", 10, 0)  # bare COOKIE option header
    edns = Edns(udp_payload=1400, options=options)
    query = Message.make_query("example.com.", RdataType.A)
    query.edns = edns
    back = Message.from_wire(query.to_wire())
    assert back.edns is not None
    assert back.edns.options == options
    assert back.edns.udp_payload == 1400


# -- RFC 3597 unknown types -------------------------------------------------
def test_unknown_rdtype_becomes_pseudo_member():
    unknown = RdataType(999)
    assert int(unknown) == 999
    assert unknown.name == "TYPE999"
    assert RdataType(999) is unknown  # memoized
    assert RdataType.from_text("TYPE999") == unknown


def test_unknown_rdclass_becomes_pseudo_member():
    unknown = RdataClass(42)
    assert int(unknown) == 42
    assert unknown.name == "CLASS42"


def test_unknown_rdtype_record_round_trips_opaquely():
    rrset = RRset(
        Name("blob.example.com."),
        RdataType(4096),
        ttl=60,
        rdatas=[OpaqueRdata(RdataType(4096), b"\xde\xad\xbe\xef")],
    )
    response = Message.make_query("blob.example.com.", RdataType(4096)).make_response()
    response.add(Section.ANSWER, rrset)
    back = Message.from_wire(response.to_wire())
    decoded = back.answer[0]
    assert decoded.rdtype == 4096
    (rdata,) = decoded.rdatas
    assert isinstance(rdata, OpaqueRdata)
    assert rdata.data == b"\xde\xad\xbe\xef"
    assert rdata.to_text() == "\\# 4 deadbeef"


def test_opaque_rdata_text_for_empty_payload():
    assert OpaqueRdata(RdataType(1000)).to_text() == "\\# 0"


def test_known_types_still_decode_normally():
    response = Message.make_query("a.example.com.", RdataType.A).make_response()
    response.add(
        Section.ANSWER,
        RRset(Name("a.example.com."), RdataType.A, 300, [A("192.0.2.1")]),
    )
    back = Message.from_wire(response.to_wire())
    (rdata,) = back.answer[0].rdatas
    assert isinstance(rdata, A)
    assert rdata.address == "192.0.2.1"
