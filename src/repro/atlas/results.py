"""Measurement results as a table, and dataset summaries over it.

A :class:`ResultSet` applies the same hygiene the paper does: responses
that time out, return unexpected rcodes, or carry answers other than the
expected ones (hijacked probes, §3.2) are *discarded*; per-experiment
summaries report probes/VPs/queries/valid/discarded exactly like Table 2
and Table 3.

The analysis consumes (probe, resolver, rtt, ttl, answer) tuples, so the
set is stored as that table: one dimension row per vantage point, one
:mod:`array` column per per-query field (:class:`Columns`) and one table
of distinct answer tuples.  :class:`MeasurementResult` is the row *view*,
built on first use of :attr:`ResultSet.results`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region

#: ``Columns.ttl`` cell of a row whose ``ttl`` is ``None`` (TTLs are >= 0).
TTL_NONE = -1
#: ``Columns.flags`` bits.
CACHE_HIT, SERVED_STALE = 1, 2


@dataclass(frozen=True, slots=True)
class MeasurementResult:
    """One query from one VP in one round."""

    probe_id: int
    vp_id: str
    resolver_address: str
    region: Region
    asn: int
    round_index: int
    timestamp: float
    qname: Name
    qtype: RdataType
    rcode: Rcode
    ttl: Optional[int]
    answers: tuple[str, ...]
    rtt: float
    cache_hit: bool = False
    served_stale: bool = False

    @property
    def ok(self) -> bool:
        return self.rcode == Rcode.NOERROR and bool(self.answers)


class Columns(NamedTuple):
    """The per-query fields: row ``i`` of a set is cell ``i`` of each."""

    vp: array  # "i": index into ResultSet.vps
    round_index: array  # "i"
    timestamp: array  # "d"
    rcode: array  # "H"
    ttl: array  # "q": TTL_NONE where the row has no TTL
    answer: array  # "i": index into ResultSet.answer_tuples
    rtt: array  # "d"
    flags: array  # "B": CACHE_HIT | SERVED_STALE

    @classmethod
    def zeros(cls, n: int) -> "Columns":
        """``n`` zeroed rows, for a producer that assigns cells by index."""
        return cls(*[array(code, bytes(n * array(code).itemsize)) for code in "iidHqidB"])

    def take(self, indices: list[int]) -> "Columns":
        """The rows at ``indices``, in that order.  Columns are never
        assigned to once their producer is done, so every row in place
        is these columns themselves: no copy for a filter that kept all."""
        n = len(self.vp)
        if len(indices) == n and indices == list(range(n)):
            return self
        return Columns(*[array(col.typecode, [col[i] for i in indices]) for col in self])


class VpRow(NamedTuple):
    """What a vantage point contributes to every one of its results."""

    probe_id: int
    vp_id: str
    resolver_address: str
    region: Region
    asn: int
    qname: Name
    qtype: RdataType


class ResultSet:
    """All results of one measurement, with validity filtering.

    ``ResultSet(rows, spec=...)`` tabulates a list of rows;
    :meth:`from_table` adopts a table its producer already holds.
    Subsets (:meth:`take`, :meth:`valid`, …) share ``vps`` and
    ``answer_tuples`` with their parent, so either may hold unused
    entries: read them through the columns.
    """

    def __init__(self, results: Iterable[MeasurementResult] = (), spec: object = None):
        rows = list(results)
        vps: dict[VpRow, int] = {}
        answers: dict[tuple[str, ...], int] = {}
        columns = Columns.zeros(len(rows))
        for i, row in enumerate(rows):
            vp = VpRow(row.probe_id, row.vp_id, row.resolver_address, row.region,
                       row.asn, row.qname, row.qtype)
            columns.vp[i] = vps.setdefault(vp, len(vps))
            columns.round_index[i] = row.round_index
            columns.timestamp[i] = row.timestamp
            columns.rcode[i] = row.rcode
            columns.ttl[i] = TTL_NONE if row.ttl is None else row.ttl
            columns.answer[i] = answers.setdefault(row.answers, len(answers))
            columns.rtt[i] = row.rtt
            columns.flags[i] = row.cache_hit * CACHE_HIT | row.served_stale * SERVED_STALE
        self.vps: list[VpRow] = list(vps)
        self.columns = columns
        self.answer_tuples: list[tuple[str, ...]] = list(answers)
        self.spec = spec
        self._rows: Optional[list[MeasurementResult]] = None

    @classmethod
    def from_table(
        cls, vps: list[VpRow], columns: Columns,
        answer_tuples: list[tuple[str, ...]], spec: object = None,
    ) -> "ResultSet":
        self = cls.__new__(cls)
        self.vps, self.columns, self.answer_tuples = vps, columns, answer_tuples
        self.spec = spec
        self._rows = None
        return self

    @classmethod
    def concat(cls, parts: Sequence["ResultSet"], spec: object = None) -> "ResultSet":
        """The parts' rows in order, over one merged pair of tables."""
        vps: list[VpRow] = []
        answers: dict[tuple[str, ...], int] = {}
        columns = Columns.zeros(0)
        for part in parts:
            offset = len(vps)
            vps.extend(part.vps)
            remap = [answers.setdefault(answer, len(answers)) for answer in part.answer_tuples]
            shifted = part.columns._replace(
                vp=[v + offset for v in part.columns.vp],
                answer=[remap[a] for a in part.columns.answer],
            )
            for merged, column in zip(columns, shifted):
                merged.extend(column)
        return cls.from_table(vps, columns, list(answers), spec)

    def take(self, indices: list[int]) -> "ResultSet":
        """The rows at ``indices``, in that order."""
        return ResultSet.from_table(
            self.vps, self.columns.take(indices), self.answer_tuples, self.spec
        )

    # -- the row view ---------------------------------------------------------
    @property
    def results(self) -> list[MeasurementResult]:
        if self._rows is None:
            vps, answer_tuples = self.vps, self.answer_tuples
            rcodes = {value: Rcode(value) for value in set(self.columns.rcode)}
            rows = []
            for v, round_index, timestamp, rcode, ttl, answer, rtt, flags in zip(*self.columns):
                probe_id, vp_id, resolver_address, region, asn, qname, qtype = vps[v]
                rows.append(MeasurementResult(
                    probe_id, vp_id, resolver_address, region, asn, round_index,
                    timestamp, qname, qtype, rcodes[rcode],
                    None if ttl == TTL_NONE else ttl, answer_tuples[answer], rtt,
                    bool(flags & CACHE_HIT), bool(flags & SERVED_STALE),
                ))
            self._rows = rows
        return self._rows

    def __len__(self) -> int:
        return len(self.columns.vp)

    def __iter__(self) -> Iterator[MeasurementResult]:
        return iter(self.results)

    def __eq__(self, other: object) -> bool:
        """Same spec and the same rows in the same order, however tabulated."""
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.spec == other.spec and self._cells() == other._cells()

    def _cells(self) -> Columns:
        """The columns with both index columns resolved through their tables."""
        return self.columns._replace(
            vp=[self.vps[v] for v in self.columns.vp],
            answer=[self.answer_tuples[a] for a in self.columns.answer],
        )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_rows": None}

    def __repr__(self) -> str:
        return f"ResultSet({len(self)} results, {len(self.vp_ids())} vps, spec={self.spec!r})"

    # -- filtering -----------------------------------------------------------
    def _valid_indices(self, expect) -> list[int]:
        answered = [bool(answer) for answer in self.answer_tuples]
        noerror = Rcode.NOERROR
        keep = [
            i for i, (rcode, answer) in enumerate(zip(self.columns.rcode, self.columns.answer))
            if rcode == noerror and answered[answer]
        ]
        if expect is not None:
            keep = [i for i, row in zip(keep, self.take(keep).results) if expect(row)]
        return keep

    def valid(
        self, expect: Optional[Callable[[MeasurementResult], bool]] = None
    ) -> "ResultSet":
        """Responses with NOERROR and a non-empty answer — that ``expect``,
        given one, accepts (it only sees rows that passed the first test)."""
        return self.take(self._valid_indices(expect))

    def discarded(
        self, expect: Optional[Callable[[MeasurementResult], bool]] = None
    ) -> "ResultSet":
        valid = set(self._valid_indices(expect))
        return self.take([i for i in range(len(self)) if i not in valid])

    def filtered(self, predicate: Callable[[MeasurementResult], bool]) -> "ResultSet":
        return self.take([i for i, row in enumerate(self.results) if predicate(row)])

    def for_round(self, round_index: int) -> "ResultSet":
        return self.take(
            [i for i, value in enumerate(self.columns.round_index) if value == round_index]
        )

    # -- extraction -----------------------------------------------------------
    def ttls(self) -> list[int]:
        return [ttl for ttl in self.columns.ttl if ttl != TTL_NONE]

    def rtts(self) -> list[float]:
        return self.columns.rtt.tolist()

    def rtts_ms(self) -> list[float]:
        return [rtt * 1000.0 for rtt in self.columns.rtt]

    def _of_vps(self, field: str) -> set:
        """One field of every ``vps`` row a result refers to."""
        position = VpRow._fields.index(field)
        return {self.vps[v][position] for v in set(self.columns.vp)}

    def probe_ids(self) -> set[int]:
        return self._of_vps("probe_id")

    def vp_ids(self) -> set[str]:
        return self._of_vps("vp_id")

    def resolver_addresses(self) -> set[str]:
        return self._of_vps("resolver_address")

    def regions(self) -> set[Region]:
        return self._of_vps("region")

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
        for answer, count in Counter(self.columns.answer).items():
            answers = self.answer_tuples[answer]
            counts[answers] = counts.get(answers, 0) + count
        return counts

    def answer_timeseries(
        self, bin_seconds: float = 600.0
    ) -> dict[str, dict[int, int]]:
        """Per-answer counts in time bins — the Figure 6/7 bar series."""
        columns = self.columns
        cells = Counter(zip(columns.answer, [int(t // bin_seconds) for t in columns.timestamp]))
        series: dict[str, dict[int, int]] = {}
        for (answer, index), count in cells.items():
            answers = self.answer_tuples[answer]
            if not answers:
                continue
            bins = series.setdefault(answers[-1], {})
            bins[index] = bins.get(index, 0) + count
        return series

    # -- summaries -------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """The Table 2/Table 3 bookkeeping for this dataset."""
        valid, vp, vps = self._valid_indices(None), self.columns.vp, self.vps
        probes, probes_valid = len(self.probe_ids()), len({vps[vp[i]].probe_id for i in valid})
        queries, responses_valid = len(self), len(valid)
        timeouts = self.columns.rcode.count(Rcode.SERVFAIL)
        return {
            "probes": probes,
            "probes_valid": probes_valid,
            "probes_discarded": probes - probes_valid,
            "vps": len(self.vp_ids()),
            "queries": queries,
            "timeouts": timeouts,
            "responses": queries - timeouts,
            "responses_valid": responses_valid,
            "responses_discarded": queries - timeouts - responses_valid,
            "resolvers": len(self.resolver_addresses()),
            "ases": len(self._of_vps("asn")),
        }
