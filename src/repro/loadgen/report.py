"""Load-generation results: achieved rate, loss, latency percentiles.

The report reuses :func:`repro.analysis.latencystats.latency_summary`
(the paper's Figure 10 machinery) so the live numbers are computed by
exactly the same percentile code as the simulated ones, and can land in
a :class:`MetricsRegistry` for the standard snapshot export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.latencystats import LatencySummary, latency_summary
from repro.dns.message import Rcode
from repro.metrics import HOST, Histogram, MetricsRegistry, log_buckets
from repro.metrics.registry import COUNTER, GAUGE, HISTOGRAM, LABELED_COUNTER

#: Same spacing as the server's serve.latency_ms so the two line up.
LOADGEN_LATENCY_BUCKETS_MS = log_buckets(0.01, 10_000.0, per_decade=4)


@dataclass
class LoadReport:
    """What one load-generation run achieved."""

    mode: str
    offered_qps: float
    achieved_qps: float
    wall_s: float
    sent: int
    received: int
    lost: int
    attempts: int
    parse_errors: int
    rcodes: dict[int, int] = field(default_factory=dict)
    latency: Optional[LatencySummary] = None
    latencies_ms: list[float] = field(default_factory=list)

    @classmethod
    def from_outcomes(
        cls,
        mode: str,
        offered_qps: float,
        wall_s: float,
        latencies_ms: list[float],
        lost: int,
        attempts: int,
        rcodes: dict[int, int],
        parse_errors: int,
    ) -> "LoadReport":
        received = len(latencies_ms)
        sent = received + lost
        return cls(
            mode=mode,
            offered_qps=offered_qps,
            achieved_qps=sent / wall_s if wall_s > 0 else 0.0,
            wall_s=wall_s,
            sent=sent,
            received=received,
            lost=lost,
            attempts=attempts,
            parse_errors=parse_errors,
            rcodes=dict(rcodes),
            latency=latency_summary(latencies_ms),
            latencies_ms=latencies_ms,
        )

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    @property
    def rcode_names(self) -> dict[str, int]:
        return {_rcode_name(rcode): count for rcode, count in self.rcodes.items()}

    @property
    def latency_histogram(self) -> Histogram:
        histogram = Histogram("loadgen.latency_ms", LOADGEN_LATENCY_BUCKETS_MS, HOST)
        for value in self.latencies_ms:
            histogram.observe(value)
        return histogram

    def to_metrics(self, registry: MetricsRegistry) -> None:
        """Have ``registry`` collect this run (HOST domain)."""
        registry.collect(self, (
            *((f"loadgen.{field}", COUNTER, field)
              for field in ("sent", "received", "lost", "attempts", "parse_errors")),
            ("loadgen.achieved_qps", GAUGE, "achieved_qps"),
            ("loadgen.rcode", LABELED_COUNTER, "rcode_names"),
            ("loadgen.latency_ms", HISTOGRAM, "latency_histogram"),
        ), HOST)

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"mode {self.mode}: offered {self.offered_qps:.0f} qps, "
            f"achieved {self.achieved_qps:.1f} qps over {self.wall_s:.2f} s",
            f"sent {self.sent}  received {self.received}  "
            f"lost {self.lost} ({self.loss_rate:.2%})  "
            f"attempts {self.attempts}  parse errors {self.parse_errors}",
        ]
        if self.rcodes:
            counts = "  ".join(
                f"{_rcode_name(rcode)}={count}"
                for rcode, count in sorted(self.rcodes.items())
            )
            lines.append(f"rcodes: {counts}")
        if self.latency is not None:
            lat = self.latency
            lines.append(
                f"latency ms: p50 {lat.median:.3f}  p95 {lat.p95:.3f}  "
                f"p99 {lat.p99:.3f}  mean {lat.mean:.3f}"
            )
        return "\n".join(lines)


def _rcode_name(value: int) -> str:
    try:
        return Rcode(value).name
    except ValueError:
        return f"RCODE{value}"
