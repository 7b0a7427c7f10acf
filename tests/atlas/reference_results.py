"""The row-list ``ResultSet`` and its merge, kept as the reference.

This is ``repro.atlas.results.ResultSet`` and the result-set half of
``repro.runner.merge`` as they stood before the set became a table
(commit 5988a4e), bodies unchanged: a list of :class:`MeasurementResult`
rows and one Python loop per method.  ``test_results_equivalence.py``
holds the columnar set to it method by method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.atlas.results import MeasurementResult
from repro.dns.message import Rcode
from repro.net.topology import Region
from repro.runner.merge import MergeError


@dataclass
class ResultSet:
    """All results of one measurement, with validity filtering."""

    results: list[MeasurementResult]
    spec: object = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[MeasurementResult]:
        return iter(self.results)

    # -- filtering -----------------------------------------------------------
    def valid(
        self, expect: Optional[Callable[[MeasurementResult], bool]] = None
    ) -> "ResultSet":
        """Responses with NOERROR and a non-empty expected answer."""
        keep = [
            result
            for result in self.results
            if result.ok and (expect is None or expect(result))
        ]
        return ResultSet(keep, spec=self.spec)

    def discarded(
        self, expect: Optional[Callable[[MeasurementResult], bool]] = None
    ) -> "ResultSet":
        valid_ids = {id(result) for result in self.valid(expect).results}
        return ResultSet(
            [result for result in self.results if id(result) not in valid_ids],
            spec=self.spec,
        )

    def filtered(self, predicate: Callable[[MeasurementResult], bool]) -> "ResultSet":
        return ResultSet([r for r in self.results if predicate(r)], spec=self.spec)

    def for_round(self, round_index: int) -> "ResultSet":
        return self.filtered(lambda r: r.round_index == round_index)

    # -- extraction -----------------------------------------------------------
    def ttls(self) -> list[int]:
        return [result.ttl for result in self.results if result.ttl is not None]

    def rtts(self) -> list[float]:
        return [result.rtt for result in self.results]

    def rtts_ms(self) -> list[float]:
        return [result.rtt * 1000.0 for result in self.results]

    def vp_ids(self) -> set[str]:
        return {result.vp_id for result in self.results}

    def probe_ids(self) -> set[int]:
        return {result.probe_id for result in self.results}

    def resolver_addresses(self) -> set[str]:
        return {result.resolver_address for result in self.results}

    def regions(self) -> set[Region]:
        return {result.region for result in self.results}

    # -- grouping -----------------------------------------------------------
    def by_vp(self) -> dict[str, list[MeasurementResult]]:
        grouped: dict[str, list[MeasurementResult]] = {}
        for result in self.results:
            grouped.setdefault(result.vp_id, []).append(result)
        for rows in grouped.values():
            rows.sort(key=lambda r: r.timestamp)
        return grouped

    def by_region(self) -> dict[Region, list[MeasurementResult]]:
        grouped: dict[Region, list[MeasurementResult]] = {}
        for result in self.results:
            grouped.setdefault(result.region, []).append(result)
        return grouped

    def by_answer(self) -> dict[tuple[str, ...], int]:
        """How many responses carried each answer set (Figure 6/7 series)."""
        counts: dict[tuple[str, ...], int] = {}
        for result in self.results:
            counts[result.answers] = counts.get(result.answers, 0) + 1
        return counts

    def answer_timeseries(
        self, bin_seconds: float = 600.0
    ) -> dict[str, dict[int, int]]:
        """Per-answer counts in time bins — the Figure 6/7 bar series."""
        series: dict[str, dict[int, int]] = {}
        for result in self.results:
            if not result.answers:
                continue
            key = result.answers[-1]
            bins = series.setdefault(key, {})
            index = int(result.timestamp // bin_seconds)
            bins[index] = bins.get(index, 0) + 1
        return series

    # -- summaries -------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """The Table 2/Table 3 bookkeeping for this dataset."""
        valid = self.valid()
        timeouts = sum(1 for r in self.results if r.rcode == Rcode.SERVFAIL)
        return {
            "probes": len(self.probe_ids()),
            "probes_valid": len(valid.probe_ids()),
            "probes_discarded": len(self.probe_ids()) - len(valid.probe_ids()),
            "vps": len(self.vp_ids()),
            "queries": len(self.results),
            "timeouts": timeouts,
            "responses": len(self.results) - timeouts,
            "responses_valid": len(valid),
            "responses_discarded": len(self.results) - timeouts - len(valid),
            "resolvers": len(self.resolver_addresses()),
            "ases": len({r.asn for r in self.results}),
        }


def _result_sort_key(result: MeasurementResult) -> tuple:
    return (result.timestamp, result.probe_id, result.vp_id, result.round_index)


def merge_result_sets(
    parts: Iterable[ResultSet], *, check: bool = True
) -> ResultSet:
    """Merge per-shard :class:`ResultSet`s into one canonical set.

    Invariants checked (``check=True``):

    - shards are disjoint: no probe id appears in more than one part;
    - no VP answers the same round twice;
    - virtual timestamps are monotone (non-decreasing) per VP within
      each part — a shard that time-travels was mis-scheduled.
    """
    parts = list(parts)
    if not parts:
        return ResultSet([])
    if check:
        _check_disjoint_probes(parts)
        _check_monotone_timestamps(parts)
    merged: list[MeasurementResult] = []
    for part in parts:
        merged.extend(part.results)
    if check:
        _check_unique_rounds(merged)
    merged.sort(key=_result_sort_key)
    spec = next((part.spec for part in parts if part.spec is not None), None)
    return ResultSet(merged, spec=spec)


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
        last: dict[str, float] = {}
        for result in part.results:
            previous = last.get(result.vp_id)
            if previous is not None and result.timestamp < previous:
                raise MergeError(
                    f"shard output {part_index}: VP {result.vp_id} timestamps "
                    f"go backwards ({previous} -> {result.timestamp})"
                )
            last[result.vp_id] = result.timestamp


def _check_unique_rounds(merged: list[MeasurementResult]) -> None:
    seen: set[tuple[str, int]] = set()
    for result in merged:
        key = (result.vp_id, result.round_index)
        if key in seen:
            raise MergeError(
                f"VP {result.vp_id} has two results for round "
                f"{result.round_index}: duplicate shard output?"
            )
        seen.add(key)
