"""Merge invariants: order independence and duplicate/ordering checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atlas.results import MeasurementResult, ResultSet
from repro.crawler.crawl import CrawlRecord, CrawlResult
from repro.crawler.toplists import GeneratedDomain
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.runner.merge import MergeError, merge_crawl_results, merge_result_sets


def _result(probe_id: int, round_index: int, timestamp: float) -> MeasurementResult:
    return MeasurementResult(
        probe_id=probe_id,
        vp_id=f"{probe_id}#0",
        resolver_address=f"10.0.0.{probe_id % 250}",
        region=Region.EU,
        asn=probe_id % 50,
        round_index=round_index,
        timestamp=timestamp,
        qname=Name("uy."),
        qtype=RdataType.NS,
        rcode=Rcode.NOERROR,
        ttl=300,
        answers=("ns1.uy.",),
        rtt=0.03,
    )


def _shard_sets(probe_counts: list[int], rounds: int = 3) -> list[ResultSet]:
    """Synthetic per-shard ResultSets over disjoint probe ranges."""
    sets = []
    base = 0
    for count in probe_counts:
        rows = [
            _result(base + p, r, timestamp=600.0 * r + (base + p) * 0.5)
            for r in range(rounds)
            for p in range(count)
        ]
        sets.append(ResultSet(rows))
        base += count
    return sets


@settings(max_examples=25, deadline=None)
@given(
    probe_counts=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    data=st.data(),
)
def test_merging_any_permutation_equals_the_serial_order(probe_counts, data):
    parts = _shard_sets(probe_counts)
    serial = merge_result_sets(parts)
    permutation = data.draw(st.permutations(parts))
    assert merge_result_sets(permutation).results == serial.results


def test_merge_preserves_every_result():
    parts = _shard_sets([3, 2, 4])
    merged = merge_result_sets(parts)
    assert len(merged) == sum(len(part) for part in parts)
    assert merged.probe_ids() == set(range(9))


def test_merge_orders_by_virtual_time():
    merged = merge_result_sets(_shard_sets([2, 2])[::-1])
    stamps = [result.timestamp for result in merged]
    assert stamps == sorted(stamps)


def test_duplicate_probe_ids_rejected():
    part = _shard_sets([2])[0]
    with pytest.raises(MergeError, match="disjoint"):
        merge_result_sets([part, part])


def test_duplicate_round_within_shard_rejected():
    rows = [_result(1, 0, 0.0), _result(1, 0, 10.0)]
    with pytest.raises(MergeError, match="two results for round"):
        merge_result_sets([ResultSet(rows)])


def test_backwards_timestamps_rejected():
    rows = [_result(1, 1, 600.0), _result(1, 0, 0.0)]
    with pytest.raises(MergeError, match="backwards"):
        merge_result_sets([ResultSet(rows)])


def test_merge_empty_is_empty():
    assert len(merge_result_sets([])) == 0


def test_merge_keeps_spec():
    parts = _shard_sets([1, 1])
    parts[0].spec = "spec-sentinel"
    assert merge_result_sets(parts).spec == "spec-sentinel"


# -- crawl results -----------------------------------------------------------


def _crawl_record(name: str) -> CrawlRecord:
    domain = GeneratedDomain(
        name=Name(name),
        list_name="Alexa",
        format="2LD",
        responsive=True,
        kind="apex",
        bailiwick="out",
        parent=Name("com."),
    )
    return CrawlRecord(domain=domain, responsive=True, ns_response="ns")


def test_crawl_merge_concatenates_in_shard_order():
    parts = [
        CrawlResult([_crawl_record("a.com."), _crawl_record("b.com.")]),
        CrawlResult([_crawl_record("c.com.")]),
    ]
    merged, queries = merge_crawl_results(parts, queries=[10, 5])
    assert [str(r.domain.name) for r in merged] == ["a.com.", "b.com.", "c.com."]
    assert queries == 15


def test_crawl_merge_rejects_duplicate_domains():
    part = CrawlResult([_crawl_record("a.com.")])
    with pytest.raises(MergeError, match="crawled twice"):
        merge_crawl_results([part, part])

