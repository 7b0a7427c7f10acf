"""Tests for repro.atlas.results."""

import dataclasses
import pickle

import pytest

from repro.atlas.results import MeasurementResult, ResultSet
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region


def result(
    probe=1,
    resolver="10.0.0.1",
    round_index=0,
    timestamp=0.0,
    rcode=Rcode.NOERROR,
    ttl=300,
    answers=("192.0.2.1",),
    rtt=0.02,
    region=Region.EU,
    asn=64512,
):
    return MeasurementResult(
        probe_id=probe,
        vp_id=f"{probe}@{resolver}",
        resolver_address=resolver,
        region=region,
        asn=asn,
        round_index=round_index,
        timestamp=timestamp,
        qname=Name("uy."),
        qtype=RdataType.NS,
        rcode=rcode,
        ttl=ttl,
        answers=answers,
        rtt=rtt,
    )


class TestRow:
    def test_a_row_is_a_frozen_slotted_value(self):
        row = result()
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.ttl = 60
        assert not hasattr(row, "__dict__")
        assert result() == row and hash(result()) == hash(row)
        assert pickle.loads(pickle.dumps(row)) == row
        changed = dataclasses.replace(row, ttl=60)
        assert changed == result(ttl=60) and row.ttl == 300
        assert ResultSet([row]).results == [row]


class TestValidity:
    def test_valid_keeps_ok(self):
        results = ResultSet([result(), result(rcode=Rcode.SERVFAIL, ttl=None, answers=())])
        assert len(results.valid()) == 1

    def test_valid_with_expectation(self):
        results = ResultSet([result(answers=("hijacked",)), result()])
        valid = results.valid(lambda r: "192.0.2.1" in r.answers)
        assert len(valid) == 1

    def test_discarded_complements_valid(self):
        results = ResultSet([result(), result(rcode=Rcode.NXDOMAIN, answers=())])
        assert len(results.discarded()) == 1

    def test_empty_answers_invalid(self):
        results = ResultSet([result(answers=())])
        assert len(results.valid()) == 0

    def test_discarded_tells_equal_rows_apart_by_position(self):
        # Each row has an equal twin, and the rows handed out are views
        # built on demand: neither equality nor identity can say which
        # rows were kept.  Only their positions can.
        good, bad = result(), result(rcode=Rcode.SERVFAIL, ttl=None, answers=())
        results = ResultSet([good, bad, result(), good, bad])
        assert results.valid().results == [good] * 3
        assert results.discarded().results == [bad] * 2
        only_first = iter([True, False, False])
        assert results.discarded(lambda r: next(only_first)).results == [bad, good, good, bad]

    def test_expectation_only_sees_answered_rows(self):
        seen = []
        results = ResultSet([
            result(rcode=Rcode.SERVFAIL, ttl=None, answers=()), result(answers=()),
            result(probe=2), result(rcode=Rcode.NXDOMAIN),
        ])
        assert len(results.valid(lambda r: seen.append(r) or True)) == 1
        assert [r.probe_id for r in seen] == [2]


class TestExtraction:
    def test_ttls_skips_none(self):
        results = ResultSet([result(ttl=300), result(ttl=None)])
        assert results.ttls() == [300]

    def test_rtts_ms(self):
        results = ResultSet([result(rtt=0.05)])
        assert results.rtts_ms() == [50.0]

    def test_sets(self):
        results = ResultSet([result(probe=1), result(probe=2, resolver="10.0.0.2")])
        assert results.probe_ids() == {1, 2}
        assert results.vp_ids() == {"1@10.0.0.1", "2@10.0.0.2"}
        assert results.resolver_addresses() == {"10.0.0.1", "10.0.0.2"}


class TestGrouping:
    def test_by_vp_sorted(self):
        results = ResultSet([result(timestamp=10.0), result(timestamp=5.0)])
        rows = results.by_vp()["1@10.0.0.1"]
        assert [r.timestamp for r in rows] == [5.0, 10.0]

    def test_by_region(self):
        results = ResultSet([result(region=Region.EU), result(region=Region.SA)])
        grouped = results.by_region()
        assert len(grouped[Region.EU]) == 1
        assert len(grouped[Region.SA]) == 1

    def test_by_answer(self):
        results = ResultSet([result(), result(), result(answers=("198.51.100.2",))])
        counts = results.by_answer()
        assert counts[("192.0.2.1",)] == 2

    def test_answer_timeseries_bins(self):
        results = ResultSet(
            [result(timestamp=0.0), result(timestamp=650.0),
             result(timestamp=700.0, answers=("198.51.100.2",))]
        )
        series = results.answer_timeseries(600.0)
        assert series["192.0.2.1"] == {0: 1, 1: 1}
        assert series["198.51.100.2"] == {1: 1}

    def test_for_round(self):
        results = ResultSet([result(round_index=0), result(round_index=1)])
        assert len(results.for_round(1)) == 1


class TestSummary:
    def test_summary_counts(self):
        results = ResultSet([
            result(),
            result(probe=2, resolver="10.0.0.2", rcode=Rcode.SERVFAIL, answers=(), ttl=None),
        ])
        summary = results.summary()
        assert summary["probes"] == 2
        assert summary["queries"] == 2
        assert summary["timeouts"] == 1
        assert summary["responses_valid"] == 1
        assert summary["probes_valid"] == 1
        assert summary["probes_discarded"] == 1
