"""Tests for repro.dns.rdtypes."""

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import (
    AAAA,
    A,
    CNAME,
    DNSKEY,
    MX,
    NS,
    OPT,
    RRSIG,
    SOA,
    TXT,
    RdataType,
    _RDATA_CLASSES,
    read_rdata,
)
from repro.dns.wire import WireReader, WireWriter


def wire_round_trip(rdata):
    writer = WireWriter()
    rdata.to_wire(writer)
    blob = writer.getvalue()
    reader = WireReader(blob)
    return read_rdata(rdata.rdtype, reader, len(blob))


class TestRdataType:
    def test_values_match_iana(self):
        assert RdataType.A == 1
        assert RdataType.NS == 2
        assert RdataType.CNAME == 5
        assert RdataType.SOA == 6
        assert RdataType.MX == 15
        assert RdataType.TXT == 16
        assert RdataType.AAAA == 28
        assert RdataType.RRSIG == 46
        assert RdataType.DNSKEY == 48

    def test_from_text(self):
        assert RdataType.from_text("aaaa") == RdataType.AAAA

    def test_from_text_unknown(self):
        with pytest.raises(ValueError):
            RdataType.from_text("NOPE")

    def test_registry_covers_all(self):
        for rdtype in RdataType:
            assert _RDATA_CLASSES[rdtype].rdtype == rdtype


class TestA:
    def test_round_trips_text(self):
        assert A("192.0.2.1").address == "192.0.2.1"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            A("999.1.1.1")

    def test_wire_round_trip(self):
        assert wire_round_trip(A("192.0.2.1")) == A("192.0.2.1")

    def test_to_text(self):
        assert A("192.0.2.1").to_text() == "192.0.2.1"

    def test_wrong_rdlength(self):
        from repro.dns.wire import WireError

        with pytest.raises(WireError):
            read_rdata(RdataType.A, WireReader(b"\x01\x02\x03"), 3)


class TestAAAA:
    def test_normalizes(self):
        assert AAAA("2001:0db8::0001").address == "2001:db8::1"

    def test_wire_round_trip(self):
        assert wire_round_trip(AAAA("2001:db8::60")) == AAAA("2001:db8::60")


class TestNameBearing:
    def test_ns_accepts_string(self):
        assert NS("ns1.example.com.").target == Name("ns1.example.com")

    def test_ns_round_trip(self):
        assert wire_round_trip(NS(Name("a.b.c"))) == NS(Name("a.b.c"))

    def test_cname_round_trip(self):
        assert wire_round_trip(CNAME(Name("target.example"))) == CNAME(
            Name("target.example")
        )

    def test_mx_round_trip(self):
        assert wire_round_trip(MX(10, Name("mail.example"))) == MX(
            10, Name("mail.example")
        )

    def test_mx_text(self):
        assert MX(10, Name("mail.example")).to_text() == "10 mail.example."


class TestSOA:
    def make(self):
        return SOA(
            Name("ns.example"), Name("admin.example"), 2019021301,
            7200, 3600, 1209600, 300,
        )

    def test_round_trip(self):
        assert wire_round_trip(self.make()) == self.make()

    def test_text_fields(self):
        text = self.make().to_text()
        assert "2019021301" in text
        assert text.startswith("ns.example.")

    def test_minimum_field(self):
        assert self.make().minimum == 300


class TestTXT:
    def test_single_string_coerced(self):
        assert TXT("hello").strings == ("hello",)

    def test_round_trip_multi(self):
        rdata = TXT(("one", "two"))
        assert wire_round_trip(rdata) == rdata

    def test_too_long_chunk_rejected(self):
        with pytest.raises(ValueError):
            TXT("x" * 256)

    def test_empty_string_ok(self):
        assert wire_round_trip(TXT("")) == TXT("")


class TestDNSKEY:
    def test_round_trip(self):
        rdata = DNSKEY(257, 3, 13, b"\x01\x02\x03\x04")
        assert wire_round_trip(rdata) == rdata

    def test_text_contains_flags(self):
        assert DNSKEY(256, 3, 8, b"k").to_text().startswith("256 3 8")

    def test_short_rdata_rejected(self):
        from repro.dns.wire import WireError

        with pytest.raises(WireError):
            read_rdata(RdataType.DNSKEY, WireReader(b"\x01\x00"), 2)


class TestRRSIG:
    def make(self):
        return RRSIG(
            type_covered=RdataType.NS,
            algorithm=13,
            labels=2,
            original_ttl=3600,
            expiration=1600000000,
            inception=1590000000,
            key_tag=12345,
            signer=Name("example.com"),
            signature=b"\xde\xad\xbe\xef",
        )

    def test_round_trip(self):
        assert wire_round_trip(self.make()) == self.make()

    def test_original_ttl_preserved(self):
        # DNSSEC encloses the child's TTL in the signature (§2).
        assert wire_round_trip(self.make()).original_ttl == 3600


class TestOPT:
    def test_round_trip(self):
        assert wire_round_trip(OPT(b"\x00\x01")) == OPT(b"\x00\x01")

    def test_empty(self):
        assert wire_round_trip(OPT()) == OPT(b"")
