"""Latency statistics (paper §5.3 and §6.2).

Summaries are in milliseconds, matching how the paper reports RTTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.cdf import ECDF
from repro.net.topology import Region


@dataclass(frozen=True)
class LatencySummary:
    """Quantiles of one latency distribution, in milliseconds."""

    n: int
    median: float
    p25: float
    p75: float
    p95: float
    p99: float
    mean: float


def latency_summary(rtts_ms: Iterable[float]) -> Optional[LatencySummary]:
    """Summarize a latency sample (ms); None on an empty sample."""
    cdf = ECDF(rtts_ms)
    if len(cdf) == 0:
        return None
    return LatencySummary(
        n=len(cdf),
        median=cdf.quantile(0.5),
        p25=cdf.quantile(0.25),
        p75=cdf.quantile(0.75),
        p95=cdf.quantile(0.95),
        p99=cdf.quantile(0.99),
        mean=cdf.mean,
    )


def regional_summaries(
    rtts_by_region: dict[Region, list[float]],
) -> dict[Region, LatencySummary]:
    """Per-region summaries (Figure 10b's panels)."""
    out: dict[Region, LatencySummary] = {}
    for region in Region:
        sample = rtts_by_region.get(region, [])
        summary = latency_summary(sample)
        if summary is not None:
            out[region] = summary
    return out


def improvement_factor(before_ms: Iterable[float], after_ms: Iterable[float]) -> float:
    """Ratio of medians, before/after — ">1" means the change helped."""
    before = ECDF(before_ms)
    after = ECDF(after_ms)
    if len(before) == 0 or len(after) == 0:
        raise ValueError("empty latency sample")
    if after.median == 0:
        return float("inf")
    return before.median / after.median
