"""The columnar ``ResultSet`` against the row-list one it replaced.

``reference_results.py`` keeps the old class and the old merge, bodies
unchanged.  Hypothesis feeds both the same rows — missing TTLs, empty
answers, failures, stale answers, repeated answer tuples, VP ids shared
between probes — and every public method, the merge (results, order and
errors) and both serialisations must agree.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.atlas.results import MeasurementResult, ResultSet
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.runner.codec import decode_shard_payload, encode_shard_payload
from repro.runner.merge import MergeError, merge_result_sets
from tests.atlas import reference_results as reference

ANSWERS = [(), ("ns1.uy.",), ("ns1.uy.", "ns2.uy."), ("ns2.uy.", "ns1.uy."), ("192.0.2.1",)]
TIMES = [0.0, 0.5, 599.75, 600.0, 600.5, 1200.0, 1800.25]

# Probe ids stay below 8 so that a set of them iterates in one order however
# it was filled: the disjoint-probes error names the first duplicate it meets.
rows = st.builds(
    MeasurementResult,
    probe_id=st.integers(0, 5),
    vp_id=st.sampled_from(["0#0", "0#1", "1#0", "shared"]),
    resolver_address=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    region=st.sampled_from([Region.EU, Region.SA]),
    asn=st.sampled_from([64512, 64513]),
    round_index=st.integers(0, 3),
    timestamp=st.sampled_from(TIMES) | st.floats(0, 1e6),
    qname=st.sampled_from([Name("uy."), Name("p1.sub.cachetest.net.")]),
    qtype=st.sampled_from([RdataType.NS, RdataType.AAAA]),
    rcode=st.sampled_from([Rcode.NOERROR, Rcode.NOERROR, Rcode.SERVFAIL, Rcode.NXDOMAIN]),
    ttl=st.none() | st.sampled_from([0, 60, 300]) | st.integers(0, 2**31 - 1),
    answers=st.sampled_from(ANSWERS),
    rtt=st.sampled_from([0.0, 0.02]) | st.floats(0, 10),
    cache_hit=st.booleans(),
    served_stale=st.booleans(),
)


@st.composite
def shard_outputs(draw):
    """Rows a shard could have produced: each VP answers rounds in time
    order, once each — then maybe one row repeated or out of place."""
    out = []
    for probe_id in draw(st.lists(st.integers(0, 7), unique=True, max_size=5)):
        for k in range(draw(st.integers(1, 2))):
            template = draw(rows)
            times = sorted(draw(st.lists(st.sampled_from(TIMES), min_size=3, max_size=3)))
            for round_index, timestamp in enumerate(times):
                out.append(dataclasses.replace(
                    template, probe_id=probe_id, vp_id=f"{probe_id}#{k}",
                    round_index=round_index, timestamp=timestamp,
                    answers=draw(st.sampled_from(ANSWERS)),
                ))
    out.sort(key=lambda row: row.timestamp)
    if out and draw(st.booleans()):
        out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(out)))
    return out


def hijacked(row):
    return "ns1.uy." in row.answers


def ordered(mapping):
    """A dict as its item list: insertion order is part of the contract
    wherever a table or a plot is printed from one."""
    return [
        (key, ordered(value) if isinstance(value, dict) else value)
        for key, value in mapping.items()
    ]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(rows, max_size=12), bin_seconds=st.sampled_from([600.0, 0.25, 7.0]))
def test_every_method_agrees_with_the_row_list(rows, bin_seconds):
    table, ref = ResultSet(rows, spec="spec"), reference.ResultSet(rows, spec="spec")
    assert len(table) == len(ref)
    assert list(table) == table.results == ref.results
    for subset, ref_subset in [
        (table.valid(), ref.valid()),
        (table.valid(hijacked), ref.valid(hijacked)),
        (table.discarded(), ref.discarded()),
        (table.discarded(hijacked), ref.discarded(hijacked)),
        (table.filtered(lambda row: row.cache_hit), ref.filtered(lambda row: row.cache_hit)),
        *((table.for_round(r), ref.for_round(r)) for r in range(4)),
        (table, ref),
    ]:
        assert subset.results == ref_subset.results
        assert subset.spec == ref_subset.spec
        assert subset.ttls() == ref_subset.ttls()
        assert subset.rtts() == ref_subset.rtts()
        assert subset.rtts_ms() == ref_subset.rtts_ms()
        assert subset.vp_ids() == ref_subset.vp_ids()
        assert subset.probe_ids() == ref_subset.probe_ids()
        assert subset.resolver_addresses() == ref_subset.resolver_addresses()
        assert subset.regions() == ref_subset.regions()
        assert ordered(subset.by_vp()) == ordered(ref_subset.by_vp())
        assert ordered(subset.by_region()) == ordered(ref_subset.by_region())
        assert ordered(subset.by_answer()) == ordered(ref_subset.by_answer())
        assert ordered(subset.answer_timeseries(bin_seconds)) == ordered(
            ref_subset.answer_timeseries(bin_seconds)
        )
        assert ordered(subset.summary()) == ordered(ref_subset.summary())


def _outcome(merge, parts, check):
    try:
        return merge(parts, check=check).results
    except MergeError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    rows=shard_outputs() | st.lists(rows, max_size=10),
    by_probe=st.booleans(),
    check=st.booleans(),
    data=st.data(),
)
def test_merge_agrees_with_the_row_list_merge(rows, by_probe, check, data):
    # Split by probe (what a shard plan does) or row by row (which a plan
    # never does, and the disjoint-probes check must say so).
    n_parts = data.draw(st.integers(1, 4))
    keys = sorted({row.probe_id for row in rows}) if by_probe else range(len(rows))
    part_of = {key: data.draw(st.integers(0, n_parts - 1)) for key in keys}
    split = [[] for _ in range(n_parts)]
    for index, row in enumerate(rows):
        split[part_of[row.probe_id if by_probe else index]].append(row)
    split = data.draw(st.permutations(split))

    merged = _outcome(merge_result_sets, [ResultSet(part, spec="s") for part in split], check)
    expected = _outcome(
        reference.merge_result_sets, [reference.ResultSet(part, spec="s") for part in split], check
    )
    assert merged == expected
    if by_probe and not isinstance(expected, str):
        # Order independence: any other arrangement of the parts merges the same.
        again = data.draw(st.permutations(split))
        assert merge_result_sets([ResultSet(part) for part in again], check=check).results == merged


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(rows, max_size=12), touch=st.booleans())
def test_codec_and_pickle_round_trips_are_identity(rows, touch):
    table = ResultSet(rows, spec="spec")
    if touch:
        table.results  # a built row view must not travel, or change anything
    envelope = encode_shard_payload(results=table.valid(), queries=len(table), metrics=None)
    for payload in (envelope, pickle.loads(pickle.dumps(envelope))):
        decoded = decode_shard_payload(payload)["results"]
        assert decoded == table.valid()
        assert decoded.results == reference.ResultSet(rows).valid().results
    pickled = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"MeasurementResult" not in pickled
    revived = pickle.loads(pickled)
    assert revived == table
    assert revived.results == rows
    assert revived.spec == "spec"


def test_sets_are_equal_by_rows_not_by_tabulation():
    a, b = ANSWERS[1], ANSWERS[4]
    first = MeasurementResult(1, "1#0", "10.0.0.1", Region.EU, 64512, 0, 0.0,
                              Name("uy."), RdataType.NS, Rcode.NOERROR, 300, a, 0.02)
    second = MeasurementResult(2, "2#0", "10.0.0.2", Region.SA, 64513, 0, 1.0,
                               Name("uy."), RdataType.NS, Rcode.NOERROR, 60, b, 0.03)
    whole = ResultSet([first, second])
    # Same rows, other tables: vps and answer tuples numbered the other way.
    rebuilt = ResultSet([second, first]).take([1, 0])
    assert rebuilt.vps != whole.vps and rebuilt.answer_tuples != whole.answer_tuples
    assert rebuilt == whole
    assert ResultSet([second, first]) != whole
    assert ResultSet([first, second], spec="other") != whole
    with pytest.raises(TypeError):
        hash(whole)
