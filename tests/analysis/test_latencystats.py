"""Tests for repro.analysis.latencystats."""

import pytest

from repro.analysis.latencystats import (
    improvement_factor,
    latency_summary,
    regional_summaries,
)
from repro.net.topology import Region


class TestSummary:
    def test_quantiles(self):
        summary = latency_summary(range(1, 101))
        assert summary.median == 50
        assert summary.p95 == 95
        assert summary.n == 100

    def test_empty_returns_none(self):
        assert latency_summary([]) is None


class TestRegional:
    def test_per_region(self):
        data = {Region.EU: [10.0, 20.0], Region.SA: [100.0, 200.0]}
        summaries = regional_summaries(data)
        assert summaries[Region.EU].median < summaries[Region.SA].median

    def test_missing_regions_skipped(self):
        summaries = regional_summaries({Region.EU: [10.0]})
        assert Region.AF not in summaries


class TestImprovement:
    def test_uy_style_improvement(self):
        # §5.3: median 183 ms → 28.7 ms ≈ 6.4×.
        factor = improvement_factor([183.0] * 10, [28.7] * 10)
        assert factor == pytest.approx(183.0 / 28.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            improvement_factor([], [1.0])

    def test_zero_after_is_infinite(self):
        assert improvement_factor([5.0], [0.0]) == float("inf")
