"""The versioned shard-payload codec: round-trips, errors, helpers."""

import pickle

import pytest

from repro.core.scenarios import scenario_uy_ns
from repro.runner.codec import (
    PAYLOAD_VERSION,
    PayloadError,
    decode_shard_payload,
    encode_shard_payload,
    metrics_payload,
    query_count,
)


@pytest.fixture(scope="module")
def result_set():
    """A real campaign ResultSet: every field the codec must carry."""
    run = scenario_uy_ns(seed=9, probes=24, duration=1800.0, parallelism=1, shards=1)
    return run.results


def test_result_set_round_trips_exactly(result_set):
    payload = encode_shard_payload(
        results=result_set, queries=len(result_set.results), metrics={"m": 1}
    )
    assert payload["v"] == PAYLOAD_VERSION
    assert payload["kind"] == "resultset"
    decoded = decode_shard_payload(payload)
    assert decoded["results"].results == result_set.results
    assert decoded["results"].spec == result_set.spec
    assert decoded["queries"] == len(result_set.results)
    assert decoded["metrics"] == {"m": 1}


def test_round_trip_is_bit_exact_for_floats(result_set):
    decoded = decode_shard_payload(
        encode_shard_payload(results=result_set, queries=1, metrics=None)
    )
    for before, after in zip(result_set.results, decoded["results"].results):
        # array('d') must preserve IEEE-754 bits, not approximate values.
        assert before.timestamp.hex() == after.timestamp.hex()
        assert before.rtt.hex() == after.rtt.hex()


def test_round_trip_survives_pickle(result_set):
    payload = encode_shard_payload(
        results=result_set, queries=len(result_set.results), metrics=None
    )
    revived = pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    assert decode_shard_payload(revived)["results"].results == result_set.results


def test_columnar_payload_is_smaller_than_object_pickle(result_set):
    columnar = pickle.dumps(
        encode_shard_payload(results=result_set, queries=1, metrics=None),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    # The set pickles as its table too, so the object graph is its row view.
    objects = pickle.dumps(result_set.results, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(columnar) < len(objects)


def test_non_result_payloads_pass_through():
    payload = encode_shard_payload(results=[1, 2, 3], queries=3, metrics=None)
    assert payload["kind"] == "pickle"
    decoded = decode_shard_payload(payload)
    assert decoded == {"results": [1, 2, 3], "queries": 3, "metrics": None}


def test_already_decoded_dict_passes_through():
    legacy = {"results": [1], "queries": 1, "metrics": None}
    assert decode_shard_payload(legacy) is legacy


def test_unknown_version_raises():
    payload = encode_shard_payload(results=[1], queries=1, metrics=None)
    payload["v"] = PAYLOAD_VERSION + 1
    with pytest.raises(PayloadError):
        decode_shard_payload(payload)


def test_row_by_row_layout_of_version_3_is_refused():
    # What the codec wrote before the set was a table: a string table and
    # fourteen re-encoded columns.  Nothing decodes it any more.
    v3 = {"v": 3, "kind": "resultset", "queries": 0, "metrics": None,
          "data": {"n": 0, "spec": None, "strings": [], "answer_tuples": []}}
    assert PAYLOAD_VERSION == 5
    with pytest.raises(PayloadError, match="version 3 unsupported"):
        decode_shard_payload(v3)


def test_unknown_kind_raises():
    payload = encode_shard_payload(results=[1], queries=1, metrics=None)
    payload["kind"] = "parquet"
    with pytest.raises(PayloadError):
        decode_shard_payload(payload)


def test_query_count_reads_envelopes_and_legacy_values():
    envelope = encode_shard_payload(results=[1, 2], queries=2, metrics=None)
    assert query_count(envelope) == 2
    assert query_count({"results": [], "queries": 7}) == 7
    assert query_count([1, 2, 3]) == 3
    assert query_count(object()) == 0


def test_metrics_payload_reads_envelopes_and_legacy_values():
    envelope = encode_shard_payload(results=[1], queries=1, metrics={"x": 2})
    assert metrics_payload(envelope) == {"x": 2}
    assert metrics_payload({"results": [], "metrics": {"y": 3}}) == {"y": 3}
    assert metrics_payload([1, 2]) is None
