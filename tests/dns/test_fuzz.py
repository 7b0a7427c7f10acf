"""Fuzz tests: malformed wire input must fail cleanly, never crash.

A resolver parses untrusted bytes; the only acceptable failure mode is
:class:`WireError` (or a clean parse).  Random mutation of valid messages
additionally checks that near-valid input cannot corrupt state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Message, Section
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.record import RRset
from repro.dns.wire import WireError


def valid_message() -> Message:
    query = Message.make_query("www.example.com", RdataType.A, id=0x1234)
    response = query.make_response(authoritative=True)
    response.add(
        Section.ANSWER,
        RRset(Name("www.example.com"), RdataType.A, 300, [A("192.0.2.1")]),
    )
    response.add(
        Section.AUTHORITY,
        RRset(Name("example.com"), RdataType.NS, 3600, [NS(Name("ns1.example.com"))]),
    )
    return response


@given(st.binary(max_size=200))
def test_random_bytes_never_crash(blob):
    try:
        Message.from_wire(blob)
    except WireError:
        pass
    except ValueError:
        # Unknown enum values surface as ValueError from IntEnum; also a
        # clean, expected failure mode.
        pass


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=255),
)
def test_single_byte_mutations_fail_cleanly(position, value):
    blob = bytearray(valid_message().to_wire())
    if position >= len(blob):
        position = position % len(blob)
    blob[position] = value
    try:
        decoded = Message.from_wire(bytes(blob))
    except (WireError, ValueError):
        return
    # If it still parses, it must re-serialize without crashing.
    decoded.to_wire()


@given(st.integers(min_value=0, max_value=100))
def test_truncations_fail_cleanly(cut):
    blob = valid_message().to_wire()
    truncated = blob[: min(cut, len(blob) - 1)]
    with pytest.raises((WireError, ValueError)):
        Message.from_wire(truncated)


def test_pointer_loop_rejected():
    # Two pointers referring to each other after the header + question.
    header = bytes.fromhex("123480000001000000000000")
    # qname: pointer forward (invalid) — crafted malicious compression.
    body = b"\xc0\x0e\x00\x01\x00\x01" + b"\xc0\x0c"
    with pytest.raises(WireError):
        Message.from_wire(header + body)


def valid_edns_message() -> Message:
    message = valid_message()
    message.use_edns(udp_payload=1232, dnssec_ok=True)
    return message


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=255),
)
def test_mutated_opt_messages_fail_cleanly(position, value):
    blob = bytearray(valid_edns_message().to_wire())
    position %= len(blob)
    blob[position] = value
    try:
        decoded = Message.from_wire(bytes(blob))
    except (WireError, ValueError):
        return
    decoded.to_wire()


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.binary(max_size=64),
)
def test_unknown_rdtype_rdata_never_crashes(type_code, rdata):
    """Any 16-bit type with arbitrary rdata must parse opaquely or fail
    cleanly — a live server sees every code point eventually."""
    import struct

    from repro.dns.rdtypes import RdataType

    header = struct.pack(">HHHHHH", 0x1234, 0x8000, 0, 1, 0, 0)
    record = (
        b"\x03foo\x00"
        + struct.pack(">HHIH", type_code, 1, 300, len(rdata))
        + rdata
    )
    try:
        decoded = Message.from_wire(header + record)
    except (WireError, ValueError):
        return
    rdtype = decoded.answer[0].rdtype if decoded.answer else None
    if rdtype is not None:
        assert int(rdtype) == type_code
        assert isinstance(rdtype, RdataType)
    decoded.to_wire()


@given(st.binary(max_size=32))
def test_opt_with_garbage_options_round_trips_or_fails(options):
    import struct

    header = struct.pack(">HHHHHH", 7, 0x8000, 0, 0, 0, 1)
    opt = b"\x00" + struct.pack(">HHIH", 41, 1232, 0, len(options)) + options
    decoded = Message.from_wire(header + opt)
    assert decoded.edns is not None
    assert decoded.edns.options == options
    assert Message.from_wire(decoded.to_wire()).edns == decoded.edns
