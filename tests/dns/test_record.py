"""Tests for repro.dns.record."""

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataClass, RdataType
from repro.dns.record import ResourceRecord, RRset, group_rrsets
from repro.dns.wire import WireReader, WireWriter


def rr(name="example.com", ttl=300, address="192.0.2.1"):
    return ResourceRecord(Name(name), RdataType.A, ttl, A(address))


class TestResourceRecord:
    def test_name_coerced(self):
        record = ResourceRecord("example.com", RdataType.A, 300, A("192.0.2.1"))
        assert record.name == Name("example.com")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord(Name("x"), RdataType.NS, 300, A("192.0.2.1"))

    def test_invalid_ttl_rejected(self):
        with pytest.raises(Exception):
            rr(ttl=-5)

    def test_with_ttl(self):
        assert rr(ttl=300).with_ttl(60).ttl == 60

    def test_aged(self):
        assert rr(ttl=300).aged(100).ttl == 200

    def test_aged_floors_at_zero(self):
        assert rr(ttl=300).aged(1000).ttl == 0

    def test_aged_negative_rejected(self):
        with pytest.raises(ValueError):
            rr().aged(-1)

    def test_to_text(self):
        assert rr().to_text() == "example.com. 300 IN A 192.0.2.1"

    def test_wire_round_trip(self):
        writer = WireWriter()
        rr().to_wire(writer)
        decoded = ResourceRecord.from_wire(WireReader(writer.getvalue()))
        assert decoded == rr()

    def test_key(self):
        assert rr().key() == (Name("example.com"), RdataType.A, RdataClass.IN)


class TestRRset:
    def test_type_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RRset(Name("x"), RdataType.NS, 300, [A("192.0.2.1")])

    def test_records_round_trip(self):
        rrset = RRset(Name("example.com"), RdataType.A, 300,
                      [A("192.0.2.1"), A("192.0.2.2")])
        assert group_rrsets(rrset.records()) == [rrset]

    def test_with_ttl(self):
        rrset = RRset(Name("x"), RdataType.A, 300, [A("192.0.2.1")])
        assert rrset.with_ttl(60).ttl == 60
        assert rrset.with_ttl(60).rdatas == rrset.rdatas

    def test_aged(self):
        rrset = RRset(Name("x"), RdataType.A, 300, [A("192.0.2.1")])
        assert rrset.aged(100).ttl == 200
        assert rrset.aged(500).ttl == 0

    def test_iter_yields_rdatas(self):
        rrset = RRset(Name("x"), RdataType.A, 300, [A("192.0.2.1")])
        assert list(rrset) == [A("192.0.2.1")]

    def test_to_text_lines(self):
        rrset = RRset(Name("example.com"), RdataType.A, 300,
                      [A("192.0.2.1"), A("192.0.2.2")])
        assert len(rrset.to_text().splitlines()) == 2


class TestGroupRRsets:
    def test_groups_by_key(self):
        records = [rr(), rr(address="192.0.2.2"), rr(name="other.com")]
        rrsets = group_rrsets(records)
        assert len(rrsets) == 2

    def test_mixed_ttls_take_minimum(self):
        # The conservative RFC 2181 §5.2 reading real resolvers apply.
        records = [rr(ttl=300), rr(ttl=100, address="192.0.2.2")]
        (rrset,) = group_rrsets(records)
        assert rrset.ttl == 100

    def test_preserves_first_seen_order(self):
        records = [rr(name="b.com"), rr(name="a.com")]
        rrsets = group_rrsets(records)
        assert [str(r.name) for r in rrsets] == ["b.com.", "a.com."]

    def test_ns_grouping(self):
        records = [
            ResourceRecord(Name("z"), RdataType.NS, 60, NS(Name("ns1.z"))),
            ResourceRecord(Name("z"), RdataType.NS, 60, NS(Name("ns2.z"))),
        ]
        (rrset,) = group_rrsets(records)
        assert len(rrset) == 2
