"""One versioned codec for every shard payload.

Before this module existed three places each had their own idea of what
a shard payload looked like: :mod:`repro.runner.merge` dug
``value["metrics"]`` out of raw dicts, :mod:`repro.runner.executor`
re-implemented the ``value["queries"]`` lookup for progress telemetry,
and :mod:`repro.runner.checkpoint` pickled whatever shape a shard
function happened to return.  They now all speak through this codec.

A shard function returns :func:`encode_shard_payload`'s envelope::

    {"v": PAYLOAD_VERSION, "kind": ..., "queries": int,
     "metrics": snapshot payload | None, "data": ...}

Two kinds exist:

``"resultset"``
    A :class:`repro.atlas.results.ResultSet`, which is a table already:
    its :mod:`array` columns and answer-tuple table travel as they are
    (floats in IEEE-754 ``array('d')`` cells, so bit-exact), and only
    the per-vantage-point rows are rendered to text and ints, so no
    ``Name`` or enum object crosses the pool pipe.  Encode and decode
    are O(vantage points), not O(queries).

``"pickle"``
    Anything else (controlled/ddos/prefetch/crawl result objects)
    passes through untouched — the envelope still carries the uniform
    ``queries``/``metrics`` fields every consumer needs.

:func:`decode_shard_payload` returns the legacy
``{"results": ..., "queries": int, "metrics": payload}`` dict the
scenario-layer mergers have always consumed, so everything downstream
of :func:`repro.core.campaign.run_campaign` is unchanged.

Bumping :data:`PAYLOAD_VERSION` deliberately invalidates old run
directories: the version is embedded in every campaign fingerprint, so
resuming a run dir written by an older layout raises
:class:`repro.runner.checkpoint.CheckpointMismatch` instead of merging
garbage.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "PAYLOAD_VERSION",
    "PayloadError",
    "encode_shard_payload",
    "decode_shard_payload",
    "query_count",
    "metrics_payload",
]

#: Version of the per-shard payload layout.  v5: v4's layout, whose
#: metrics no longer carry ``net.retry_budget_exhausted`` and whose
#: pickled worlds hold the fabric's down set, not a loss model.  v4: the
#: ResultSet's own columns plus a rendered vantage-point table (v3
#: re-encoded every row into a string table and fourteen columns; v2 was
#: the bare ``{"results", "queries", "metrics"}`` dict of pickled object
#: graphs).
PAYLOAD_VERSION = 5


class PayloadError(RuntimeError):
    """A shard payload does not match the codec's versioned envelope."""


def encode_shard_payload(*, results: Any, queries: int, metrics: Optional[dict]) -> dict:
    """Wrap one shard's output in the versioned payload envelope."""
    from repro.atlas.results import ResultSet

    if isinstance(results, ResultSet):
        kind = "resultset"
        data = _encode_result_set(results)
    else:
        kind = "pickle"
        data = results
    return {
        "v": PAYLOAD_VERSION,
        "kind": kind,
        "queries": int(queries),
        "metrics": metrics,
        "data": data,
    }


def decode_shard_payload(payload: Any) -> dict:
    """Decode an envelope back to ``{"results", "queries", "metrics"}``.

    Already-decoded dicts pass through unchanged, so callers may decode
    defensively.  Anything else — payloads of another version included —
    raises :class:`PayloadError` (the fingerprint's payload version
    should have ruled those out long before decode).
    """
    if not isinstance(payload, dict):
        raise PayloadError(f"shard payload is not a dict: {type(payload).__name__}")
    if "v" not in payload:
        if "results" in payload and "queries" in payload:
            return payload  # already decoded (or built by a serial path)
        raise PayloadError(f"shard payload missing version: keys={sorted(payload)}")
    version = payload["v"]
    if version != PAYLOAD_VERSION:
        raise PayloadError(
            f"shard payload version {version!r} unsupported "
            f"(this build speaks v{PAYLOAD_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "resultset":
        results = _decode_result_set(payload["data"])
    elif kind == "pickle":
        results = payload["data"]
    else:
        raise PayloadError(f"unknown shard payload kind {kind!r}")
    return {
        "results": results,
        "queries": int(payload["queries"]),
        "metrics": payload.get("metrics"),
    }


def query_count(payload: Any) -> int:
    """Best-effort simulated-query count (encoded, decoded, or legacy)."""
    if isinstance(payload, dict) and "queries" in payload:
        try:
            return int(payload["queries"])
        except (TypeError, ValueError):
            return 0
    try:
        return len(payload)
    except TypeError:
        return 0


def metrics_payload(payload: Any) -> Optional[dict]:
    """The shard's metrics snapshot payload, or None when absent."""
    if isinstance(payload, dict):
        return payload.get("metrics")
    return None


# -- ResultSet encoding ---------------------------------------------------------


def _encode_result_set(result_set: Any) -> dict:
    return {
        "spec": result_set.spec,
        "vps": [
            (probe_id, vp_id, resolver, region.name, asn, str(qname), int(qtype))
            for probe_id, vp_id, resolver, region, asn, qname, qtype in result_set.vps
        ],
        "columns": result_set.columns._asdict(),
        "answer_tuples": result_set.answer_tuples,
    }


def _decode_result_set(data: dict) -> Any:
    from repro.atlas.results import Columns, ResultSet, VpRow
    from repro.dns.name import Name
    from repro.dns.rdtypes import RdataType
    from repro.net.topology import Region

    vps = [
        VpRow(probe_id, vp_id, resolver, Region[region], asn, Name(qname), RdataType(qtype))
        for probe_id, vp_id, resolver, region, asn, qname, qtype in data["vps"]
    ]
    return ResultSet.from_table(
        vps, Columns(**data["columns"]), data["answer_tuples"], data["spec"]
    )
