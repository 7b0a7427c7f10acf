"""Regenerate the wire-format regression corpus.

Run from the repo root::

    PYTHONPATH=src python tests/dns/data/gen_corpus.py

Each blob is a complete DNS message (12-byte header + body).  Files named
``valid_*.bin`` must decode cleanly and re-encode; files named
``reject_*.bin`` must raise ``WireError``/``ValueError`` — and, crucially,
must *terminate*: the ``reject_pointer_*`` blobs pin the fix for the
compression-pointer loop (pointers must point strictly backwards and
successive targets must strictly decrease), which a naive decoder chases
forever.  ``tests/dns/test_wire_roundtrip.py`` replays every blob.
"""

import pathlib

HERE = pathlib.Path(__file__).parent

#: Standard query header: id 0x1234, RD, one question, no records.
QUERY_HEADER = bytes.fromhex("123401000001000000000000")
#: Response header used by the historical pointer-loop reproducer.
LOOP_HEADER = bytes.fromhex("123480000001000000000000")
QTYPE_QCLASS = b"\x00\x01\x00\x01"  # A, IN


def valid_response() -> bytes:
    from repro.dns.message import Message, Section
    from repro.dns.name import Name
    from repro.dns.rdtypes import A, NS, RdataType
    from repro.dns.record import RRset

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
    return response.to_wire()


def valid_compressed() -> bytes:
    """Many records sharing suffixes: compression pointers all legal."""
    from repro.dns.message import Message, Section
    from repro.dns.name import Name
    from repro.dns.rdtypes import A, NS, RdataType
    from repro.dns.record import RRset

    query = Message.make_query("a.b.c.example.com", RdataType.NS, id=0x0042)
    response = query.make_response(authoritative=True)
    for index, owner in enumerate(
        ("a.b.c.example.com", "b.c.example.com", "c.example.com", "example.com")
    ):
        response.add(
            Section.AUTHORITY,
            RRset(
                Name(owner), RdataType.NS, 3600, [NS(Name(f"ns{index}.example.com"))]
            ),
        )
        response.add(
            Section.ADDITIONAL,
            RRset(
                Name(f"ns{index}.example.com"), RdataType.A, 300,
                [A(f"192.0.2.{index + 1}")],
            ),
        )
    return response.to_wire()


def valid_ecs_query() -> bytes:
    """A query carrying an RFC 7871 ECS option (192.0.2.0/24, scope 0)."""
    from repro.dns.ecs import ClientSubnet
    from repro.dns.message import Message
    from repro.dns.rdtypes import RdataType

    query = Message.make_query("www.cdn.example", RdataType.A, id=0x7871)
    query.use_edns(options=ClientSubnet.from_ip("192.0.2.0", 24).to_wire())
    return query.to_wire()


def valid_ecs_v6_scoped() -> bytes:
    """A response echoing a v6 ECS option with a non-zero scope."""
    from repro.dns.ecs import ClientSubnet
    from repro.dns.message import Message, Section
    from repro.dns.name import Name
    from repro.dns.rdtypes import A, RdataType
    from repro.dns.record import RRset

    query = Message.make_query("www.cdn.example", RdataType.A, id=0x7872)
    response = query.make_response(authoritative=True)
    response.add(
        Section.ANSWER,
        RRset(Name("www.cdn.example"), RdataType.A, 60, [A("203.0.113.1")]),
    )
    subnet = ClientSubnet.from_ip("2001:db8::", 56, scope=48)
    response.use_edns(options=subnet.to_wire())
    return response.to_wire()


def valid_interleaved_rrset() -> bytes:
    """An answer section no encoder of ours writes: two RRsets with their
    records interleaved (A, AAAA, A, AAAA) and the A records carrying
    different TTLs (300, 120).  Decode must group each key into one RRset,
    first-seen order, at the set's minimum TTL."""
    from repro.dns.name import Name
    from repro.dns.rdtypes import AAAA, A, RdataType
    from repro.dns.record import ResourceRecord
    from repro.dns.wire import WireWriter

    owner = Name("mixed.example.com")
    writer = WireWriter()
    writer.write_bytes(bytes.fromhex("2181" "8400" "0001" "0004" "0000" "0000"))
    writer.write_name(owner)
    writer.write_bytes(QTYPE_QCLASS)
    for rdtype, ttl, rdata in (
        (RdataType.A, 300, A("192.0.2.1")),
        (RdataType.AAAA, 600, AAAA("2001:db8::1")),
        (RdataType.A, 120, A("192.0.2.2")),
        (RdataType.AAAA, 600, AAAA("2001:db8::2")),
    ):
        ResourceRecord(owner, rdtype, ttl, rdata).to_wire(writer)
    return writer.getvalue()


def valid_every_rdata() -> bytes:
    """One record of every rdata class (and one RFC 3597 opaque type), so
    each codec's fixed block and each name-bearing rdata is on the corpus."""
    from repro.dns.message import Message, Section
    from repro.dns.name import Name
    from repro.dns.rdtypes import (
        AAAA, CNAME, DNSKEY, MX, RRSIG, SOA, TXT, OpaqueRdata, RdataType,
    )
    from repro.dns.record import RRset

    zone = Name("example.org")
    host = Name("host.example.org")
    query = Message.make_query("alias.example.org", RdataType.AAAA, id=0x3597)
    response = query.make_response(authoritative=True)
    signature = RRSIG(
        RdataType.AAAA, 13, 3, 60, 1571875200, 1569283200, 20326, zone,
        b"\x01\x02\x03\x04",
    )
    soa = SOA(
        Name("ns1.example.org"), Name("hostmaster.example.org"),
        2019102101, 7200, 900, 1209600, 300,
    )
    exchanges = [MX(10, Name("mail.example.org")), MX(20, Name("mail.example.net"))]
    https = RdataType(65)
    response.add(
        Section.ANSWER,
        RRset(Name("alias.example.org"), RdataType.CNAME, 300, [CNAME(host)]),
        RRset(host, RdataType.AAAA, 60, [AAAA("2001:db8::53")]),
        RRset(host, RdataType.RRSIG, 60, [signature]),
    )
    response.add(Section.AUTHORITY, RRset(zone, RdataType.SOA, 3600, [soa]))
    response.add(
        Section.ADDITIONAL,
        RRset(zone, RdataType.MX, 3600, exchanges),
        RRset(zone, RdataType.TXT, 3600, [TXT(("v=spf1 -all", "second string"))]),
        RRset(zone, RdataType.DNSKEY, 86400, [DNSKEY(257, 3, 13, bytes(range(16)))]),
        RRset(zone, https, 300, [OpaqueRdata(https, b"\x00\x01\x00")]),
    )
    response.use_edns(udp_payload=1232, dnssec_ok=True)
    return response.to_wire()


def reject_rrsig_signer_overrun() -> bytes:
    """An RRSIG whose RDLENGTH (18) ends right after the key tag, followed
    by the signer name ``a.``: the signer overruns its rdata.  A reader
    that then takes ``end - offset`` = -3 signature octets steps *back*
    to ``end``, passes the consumed-octets check, and decodes the signer's
    own bytes a second time as the owner of the next record."""
    header = bytes.fromhex("4034" "8400" "0001" "0002" "0000" "0000")
    question = b"\x01a\x00" + QTYPE_QCLASS
    ttl = (60).to_bytes(4, "big")
    rrsig_fixed = (
        b"\x00\x01" + b"\x0d" + b"\x01"  # covers A, algorithm 13, 1 label
        + ttl + (1571875200).to_bytes(4, "big")
        + (1569283200).to_bytes(4, "big") + b"\x4f\x66"
    )
    rrsig = b"\xc0\x0c" + b"\x00\x2e\x00\x01" + ttl + b"\x00\x12"
    # The signer, which a lax reader re-reads as the next record's owner.
    tail = b"\x01a\x00" + QTYPE_QCLASS + ttl + b"\x00\x04\xc0\x00\x02\x01"
    return header + question + rrsig + rrsig_fixed + tail


def reject_ecs_opt_overrun() -> bytes:
    """OPT rdlength promises 12 octets of ECS data; the message ends at 5."""
    header = bytes.fromhex("787101000001000000000001")
    question = b"\x03www\x07example\x03com\x00" + QTYPE_QCLASS
    # Root owner, type OPT (41), class 4096, TTL 0, rdlength 12 — then
    # only 5 octets of option data before the message ends.
    opt = b"\x00" + b"\x00\x29" + b"\x10\x00" + b"\x00" * 4 + b"\x00\x0c"
    return header + question + opt + b"\x00\x08\x00\x01\x00"


CORPUS = {
    # -- must decode ---------------------------------------------------------
    "valid_response.bin": valid_response,
    "valid_compressed_names.bin": valid_compressed,
    "valid_ecs_query.bin": valid_ecs_query,
    "valid_ecs_v6_scoped.bin": valid_ecs_v6_scoped,
    "valid_interleaved_rrset.bin": valid_interleaved_rrset,
    "valid_every_rdata.bin": valid_every_rdata,
    # OPT rdlength overruns the message: must fail at the message codec.
    "reject_ecs_opt_overrun.bin": reject_ecs_opt_overrun,
    # RRSIG signer name runs past the record's RDLENGTH.
    "reject_rrsig_signer_overrun.bin": reject_rrsig_signer_overrun,
    # -- must be rejected (and must terminate) ------------------------------
    # The historical reproducer: question name at offset 12 points to
    # offset 14, where parsing runs into a pointer back to offset 12 — a
    # mutual loop a naive decoder chases forever.
    "reject_pointer_loop_mutual.bin": lambda: (
        LOOP_HEADER + b"\xc0\x0e\x00\x01\x00\x01" + b"\xc0\x0c"
    ),
    # Question name is a pointer to itself (offset 12 -> 12).
    "reject_pointer_self.bin": lambda: (
        QUERY_HEADER + b"\xc0\x0c" + QTYPE_QCLASS
    ),
    # Pointer to a *later* offset (12 -> 32): forward references are
    # illegal even when the target exists.
    "reject_pointer_forward.bin": lambda: (
        QUERY_HEADER + b"\xc0\x20" + QTYPE_QCLASS + b"\x00" * 32
    ),
    # A label followed by a pointer back to the label's own start: each
    # traversal re-reads the label and hits the same pointer again —
    # terminates only because successive pointer targets must strictly
    # decrease.
    "reject_pointer_stall.bin": lambda: (
        QUERY_HEADER + b"\x01a\xc0\x0c" + QTYPE_QCLASS
    ),
    # Message ends in the middle of a two-octet compression pointer.
    "reject_truncated_pointer.bin": lambda: QUERY_HEADER + b"\x01a\xc0",
    # Question section cut off after the name.
    "reject_truncated_question.bin": lambda: (
        QUERY_HEADER + b"\x03www\x07example\x03com\x00\x00"
    ),
    # Four 63-octet labels: 256 encoded octets, over the 255-octet limit.
    "reject_name_too_long.bin": lambda: (
        QUERY_HEADER + (b"\x3f" + b"a" * 63) * 4 + b"\x00" + QTYPE_QCLASS
    ),
    # Label length with the reserved 0x80 type bits set.
    "reject_reserved_label_type.bin": lambda: (
        QUERY_HEADER + b"\x80a\x00" + QTYPE_QCLASS
    ),
    # Header promises a question that never appears.
    "reject_empty_body.bin": lambda: QUERY_HEADER,
}


def main() -> None:
    for filename, build in CORPUS.items():
        path = HERE / filename
        path.write_bytes(build())
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
