"""ENTRADA-style query logging.

The paper's §3.4 passive study uses ENTRADA, a DNS traffic warehouse fed by
the .nl authoritative servers.  Our servers append one :class:`QueryLogEntry`
per received query; the analysis package consumes the same
(resolver address, query name, timestamp) tuples the paper's pipeline does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Union

from repro.dns.name import Name
from repro.dns.rdtypes import RdataType


@dataclass(frozen=True)
class QueryLogEntry:
    """One received query as seen by an authoritative server."""

    timestamp: float
    client_address: str
    client_asn: int
    qname: Name
    qtype: RdataType
    server: str  # server (or anycast site) name that received the query


@dataclass
class QueryLog:
    """An append-only log of queries at one server or cluster."""

    entries: list[QueryLogEntry] = field(default_factory=list)

    def append(self, entry: QueryLogEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[QueryLogEntry]:
        return iter(self.entries)

    def clear(self) -> None:
        self.entries.clear()

    # -- filters -----------------------------------------------------------
    def filtered(self, predicate: Callable[[QueryLogEntry], bool]) -> "QueryLog":
        return QueryLog([entry for entry in self.entries if predicate(entry)])

    # -- aggregations ----------------------------------------------------------
    def unique_clients(self) -> set[str]:
        return {entry.client_address for entry in self.entries}

    def unique_client_ases(self) -> set[int]:
        return {entry.client_asn for entry in self.entries}

    def by_group(self) -> dict[tuple[str, Name], list[float]]:
        """Timestamps per (resolver address, query name) group, sorted.

        This is the unit of the paper's Figure 3/4 analysis: "368k groups of
        (resolver, query-name) pairs".
        """
        groups: dict[tuple[str, Name], list[float]] = {}
        for entry in self.entries:
            groups.setdefault((entry.client_address, entry.qname), []).append(
                entry.timestamp
            )
        for timestamps in groups.values():
            timestamps.sort()
        return groups

    def query_count_by_server(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.server] = counts.get(entry.server, 0) + 1
        return counts

    # -- persistence -----------------------------------------------------------
    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "QueryLog":
        """Load a log written by the live server's streaming
        :class:`QueryLogWriter`."""
        log = cls()
        with open(path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    log.append(entry_from_dict(json.loads(line)))
        return log

    def timeseries(
        self, bin_seconds: float, start: Optional[float] = None, end: Optional[float] = None
    ) -> dict[int, int]:
        """Query counts per time bin (Figure 6/7 are 10-minute bins)."""
        if bin_seconds <= 0:
            raise ValueError("bin size must be positive")
        low = start if start is not None else min(
            (e.timestamp for e in self.entries), default=0.0
        )
        counts: dict[int, int] = {}
        for entry in self.entries:
            if start is not None and entry.timestamp < start:
                continue
            if end is not None and entry.timestamp >= end:
                continue
            index = int((entry.timestamp - low) // bin_seconds)
            counts[index] = counts.get(index, 0) + 1
        return counts


# -- JSONL codec ---------------------------------------------------------------
def entry_to_dict(entry: QueryLogEntry) -> dict:
    """A JSON-safe dict for one entry (qtype by mnemonic, RFC 3597 style
    ``TYPE%d`` for unknowns, which :meth:`RdataType.from_text` reverses)."""
    return {
        "timestamp": entry.timestamp,
        "client_address": entry.client_address,
        "client_asn": entry.client_asn,
        "qname": str(entry.qname),
        "qtype": entry.qtype.name,
        "server": entry.server,
    }


def entry_from_dict(data: dict) -> QueryLogEntry:
    return QueryLogEntry(
        timestamp=float(data["timestamp"]),
        client_address=str(data["client_address"]),
        client_asn=int(data["client_asn"]),
        qname=Name(data["qname"]),
        qtype=RdataType.from_text(data["qtype"]),
        server=str(data["server"]),
    )


class QueryLogWriter:
    """Streaming JSONL sink for the live server.

    Unlike :class:`QueryLog` this never accumulates entries in memory: the
    live frontend appends one line per query, and ``repro analyze`` later
    reads the file back with :meth:`QueryLog.read_jsonl`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._stream: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self.count = 0

    def append(self, entry: QueryLogEntry) -> None:
        if self._stream is None:
            raise ValueError(f"query log {self.path} already closed")
        self._stream.write(json.dumps(entry_to_dict(entry)) + "\n")
        self.count += 1

    def extend(self, entries: Iterable[QueryLogEntry]) -> None:
        for entry in entries:
            self.append(entry)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "QueryLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
