"""Parameter sweeps: generalizing the paper's point comparisons to curves.

The paper compares discrete configurations (TTL 300 s vs 86400 s).
:func:`ttl_latency_sweep` fills in the curve between the points: the .uy
experiment as a function of the child NS TTL (generalizes Figure 10a).
Availability during an authoritative outage as a function of the record
TTL is the DDoS grid campaign itself
(:func:`repro.core.scenarios.scenario_ddos_resilience`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.cdf import ECDF
from repro.core.scenarios import scenario_uy_ns


@dataclass(frozen=True)
class TtlLatencyPoint:
    child_ns_ttl: int
    median_ms: float
    p75_ms: float
    p95_ms: float
    samples: int


def ttl_latency_sweep(
    ttls: Sequence[int] = (60, 300, 1800, 3600, 28800, 86400),
    probes: int = 150,
    seed: int = 0,
    duration: float = 3600.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
) -> list[TtlLatencyPoint]:
    """Median/tail .uy-NS latency as a function of the child NS TTL.

    Each TTL runs as an independent campaign (fresh world and caches), as
    the paper's before/after measurements did.  The campaign ``seed`` is
    threaded explicitly into every population and RNG; ``parallelism``
    shards each campaign over worker processes via :mod:`repro.runner`
    (the shard plan depends on ``shards``, never on the worker count).
    """
    points: list[TtlLatencyPoint] = []
    for ttl in ttls:
        run = scenario_uy_ns(
            seed=seed, probes=probes, child_ns_ttl=ttl, duration=duration,
            parallelism=parallelism, shards=shards,
        )
        cdf = ECDF(run.results.rtts_ms())
        points.append(
            TtlLatencyPoint(
                child_ns_ttl=ttl,
                median_ms=cdf.median,
                p75_ms=cdf.quantile(0.75),
                p95_ms=cdf.quantile(0.95),
                samples=len(cdf),
            )
        )
    return points
