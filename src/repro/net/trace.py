"""Exchange tracing: a structured, pcap-like record of simulated traffic.

The paper repeatedly pivots to "confirmation from the authoritative side"
(§4.6) and to pcap analysis (§4.4).  A :class:`TraceRecorder` attached to
a :class:`~repro.net.transport.Network` captures every exchange — client,
destination, question, response code, answer summary, timing — so any
experiment can be audited the same way after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.dns.message import Message, Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType


@dataclass(frozen=True)
class ExchangeRecord:
    """One request/response pair on the fabric."""

    timestamp: float
    client_address: str
    server_address: str
    qname: Name
    qtype: RdataType
    rcode: Rcode
    authoritative: bool
    answer_count: int
    referral: bool
    rtt: float

    def summary(self) -> str:
        kind = "referral" if self.referral else self.rcode.name
        return (
            f"t={self.timestamp:10.3f} {self.client_address} -> "
            f"{self.server_address} {self.qname} {self.qtype.name} "
            f"[{kind}{' aa' if self.authoritative else ''}] "
            f"{self.rtt * 1000:.1f}ms"
        )


@dataclass
class TraceRecorder:
    """Collects :class:`ExchangeRecord` rows; attach via :func:`attach`."""

    records: list[ExchangeRecord] = field(default_factory=list)
    #: Optional filter: record only exchanges this predicate accepts.
    keep: Optional[Callable[[ExchangeRecord], bool]] = None

    def add(self, record: ExchangeRecord) -> None:
        if self.keep is None or self.keep(record):
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ExchangeRecord]:
        return iter(self.records)

    def clear(self) -> None:
        self.records.clear()

    # -- queries ---------------------------------------------------------------
    def to_server(self, address: str) -> list[ExchangeRecord]:
        return [r for r in self.records if r.server_address == address]

    def for_qname(self, qname: Name | str) -> list[ExchangeRecord]:
        name = Name(qname)
        return [r for r in self.records if r.qname == name]

    def queries_per_server(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.server_address] = counts.get(record.server_address, 0) + 1
        return counts

    def render(self, limit: int = 50) -> str:
        lines = [record.summary() for record in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more")
        return "\n".join(lines)


def attach(network, recorder: TraceRecorder) -> None:
    """Wrap ``network.exchange`` so every call is recorded.

    Idempotent per recorder; detach by calling :func:`detach`.
    """
    if getattr(network, "_trace_original_exchange", None) is not None:
        raise RuntimeError("network already has a trace attached")
    original = network.exchange

    def traced_exchange(client, dst_address, query: Message, now, **kwargs):
        response, elapsed = original(client, dst_address, query, now, **kwargs)
        question = query.question
        if question is not None:
            recorder.add(
                ExchangeRecord(
                    timestamp=now,
                    client_address=client.address,
                    server_address=dst_address,
                    qname=question.qname,
                    qtype=question.qtype,
                    rcode=response.rcode,
                    authoritative=response.flags.aa,
                    answer_count=sum(len(rrset) for rrset in response.answer),
                    referral=response.is_referral(),
                    rtt=elapsed,
                )
            )
        return response, elapsed

    network._trace_original_exchange = original
    network.exchange = traced_exchange


def detach(network) -> None:
    """Remove a previously attached trace wrapper (no-op if absent)."""
    original = getattr(network, "_trace_original_exchange", None)
    if original is not None:
        network.exchange = original
        network._trace_original_exchange = None
