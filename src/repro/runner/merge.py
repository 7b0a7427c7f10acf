"""Order-independent merging of shard outputs, with invariant checks.

Shards complete in whatever order the workers finish; merging must not
depend on that order or the determinism contract breaks.  Each merger
therefore (1) validates the parts — shards must cover *disjoint* unit
ranges, so duplicate probe ids or duplicate crawl domains mean the plan
was wrong or a shard ran twice — and (2) produces a canonically ordered
result: measurement results sorted by virtual time, crawl records by the
universe's list order.  Merging any permutation of the same parts yields
an identical object (asserted property-based in the tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.atlas.results import ResultSet
from repro.metrics.snapshot import MetricsSnapshot, merge_snapshots
from repro.runner.codec import metrics_payload

if TYPE_CHECKING:
    from repro.crawler.crawl import CrawlRecord, CrawlResult

__all__ = [
    "MergeError",
    "merge_result_sets",
    "merge_crawl_results",
    "merge_counts",
    "merge_shard_metrics",
]


class MergeError(ValueError):
    """Shard outputs violate a merge invariant."""


def merge_result_sets(
    parts: Iterable[ResultSet], *, check: bool = True
) -> ResultSet:
    """Merge per-shard :class:`ResultSet`s into one canonical set.

    Invariants checked (``check=True``):

    - shards are disjoint: no probe id appears in more than one part;
    - no VP answers the same round twice;
    - virtual timestamps are monotone (non-decreasing) per VP within
      each part — a shard that time-travels was mis-scheduled.

    The merged rows are ordered by (timestamp, probe id, VP id, round),
    rows equal in all four staying in part order.
    """
    parts = list(parts)
    if not parts:
        return ResultSet([])
    if check:
        _check_disjoint_probes(parts)
        _check_monotone_timestamps(parts)
    spec = next((part.spec for part in parts if part.spec is not None), None)
    merged = ResultSet.concat(parts, spec)
    if check:
        _check_unique_rounds(merged)
    # Sort a permutation, not rows: a VP's (probe id, VP id) pair is
    # ranked once, so every key is three numbers read off the columns.
    rank = _ranks([(vp.probe_id, vp.vp_id) for vp in merged.vps])
    columns = merged.columns
    keys = [
        (timestamp, rank[v], round_index)
        for timestamp, v, round_index
        in zip(columns.timestamp, columns.vp, columns.round_index)
    ]
    return merged.take(sorted(range(len(keys)), key=keys.__getitem__))


def _ranks(values: list) -> list[int]:
    """Each value's position among the distinct values, sorted."""
    rank = {value: index for index, value in enumerate(sorted(set(values)))}
    return [rank[value] for value in values]


def _check_disjoint_probes(parts: list[ResultSet]) -> None:
    seen: dict[int, int] = {}
    for part_index, part in enumerate(parts):
        for probe_id in part.probe_ids():
            if probe_id in seen:
                raise MergeError(
                    f"probe {probe_id} appears in shard outputs "
                    f"{seen[probe_id]} and {part_index}: shards must cover "
                    f"disjoint probe ranges"
                )
            seen[probe_id] = part_index


def _check_monotone_timestamps(parts: list[ResultSet]) -> None:
    for part_index, part in enumerate(parts):
        vp_ids = [vp.vp_id for vp in part.vps]
        # One cell per distinct VP id: vps rows may share one.
        cell = _ranks(vp_ids)
        last = [float("-inf")] * len(cell)
        for v, timestamp in zip(part.columns.vp, part.columns.timestamp):
            if timestamp < last[cell[v]]:
                raise MergeError(
                    f"shard output {part_index}: VP {vp_ids[v]} timestamps "
                    f"go backwards ({last[cell[v]]} -> {timestamp})"
                )
            last[cell[v]] = timestamp


def _check_unique_rounds(merged: ResultSet) -> None:
    vp_ids = [vp.vp_id for vp in merged.vps]
    # One int per (VP id, round): the VP id's rank times the round span.
    cell, rounds = _ranks(vp_ids), merged.columns.round_index
    low = min(rounds, default=0)
    width = max(rounds, default=0) - low + 1
    keys = [cell[v] * width + r - low for v, r in zip(merged.columns.vp, rounds)]
    if len(set(keys)) == len(keys):
        return
    seen: set[int] = set()
    for v, round_index, key in zip(merged.columns.vp, rounds, keys):
        if key in seen:
            raise MergeError(
                f"VP {vp_ids[v]} has two results for round "
                f"{round_index}: duplicate shard output?"
            )
        seen.add(key)


def merge_crawl_results(
    parts: Iterable[CrawlResult],
    *,
    check: bool = True,
    queries: Optional[Iterable[int]] = None,
) -> tuple[CrawlResult, int]:
    """Merge per-shard :class:`CrawlResult`s (and query counters).

    Parts arrive keyed by shard index (contiguous domain slices), so
    concatenation in shard order reproduces the serial crawl's record
    order.  Returns ``(result, total_queries)``.
    """
    from repro.crawler.crawl import CrawlResult

    records: list[CrawlRecord] = []
    for part in parts:
        records.extend(part.records)
    if check:
        seen: set = set()
        for record in records:
            name = record.domain.name
            if name in seen:
                raise MergeError(
                    f"domain {name} crawled twice: shards must cover "
                    f"disjoint list slices"
                )
            seen.add(name)
    total_queries = sum(queries) if queries is not None else 0
    return CrawlResult(records), total_queries


def merge_shard_metrics(values: Iterable[dict]) -> MetricsSnapshot:
    """Fold shard payloads' ``"metrics"`` entries into one exact snapshot.

    Payload-shape knowledge lives in :mod:`repro.runner.codec`; this
    accepts encoded envelopes and decoded dicts alike.  Shards that
    report no metrics contribute the empty identity, so resumed
    mixed-version runs still merge — the fingerprint's payload version
    normally rules those out anyway.
    """
    parts = [
        MetricsSnapshot.from_payload(payload)
        for payload in (metrics_payload(value) for value in values)
        if payload is not None
    ]
    return merge_snapshots(parts)


def merge_counts(parts: Iterable[dict[str, int]]) -> dict[str, int]:
    """Sum per-shard counter dicts (e.g. query-log tallies)."""
    merged: dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return merged
