"""Tests for repro.analysis.hitrate (the Jung et al. cache model)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.hitrate import (
    analytic_hit_rate,
    diminishing_returns_ttl,
    latency_model,
    simulate_hit_rate,
)


class TestAnalytic:
    def test_zero_ttl_never_hits(self):
        assert analytic_hit_rate(1.0, 0.0) == 0.0

    def test_monotone_in_ttl(self):
        rates = [analytic_hit_rate(0.01, ttl) for ttl in (60, 300, 3600, 86400)]
        assert rates == sorted(rates)

    def test_known_point(self):
        # λT = 1 → hit rate 1/2.
        assert analytic_hit_rate(1 / 300, 300) == pytest.approx(0.5)

    def test_production_band(self):
        # Paper §7 (Moura et al. 2018): ~70 % hit rates for TTLs
        # 1800–86400 s at production query rates.
        rate = 20 / 3600.0  # a modestly popular name at one resolver
        assert analytic_hit_rate(rate, 1800) > 0.7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            analytic_hit_rate(-1.0, 10)


class TestSimulation:
    def test_matches_analytic(self):
        rate = 0.02
        for ttl in (60, 600, 3600):
            simulated = simulate_hit_rate(rate, ttl, duration=500000, seed=3)
            analytic = analytic_hit_rate(rate, ttl)
            assert abs(simulated - analytic) < 0.05

    def test_zero_rate(self):
        assert simulate_hit_rate(0.0, 300) == 0.0

    def test_deterministic(self):
        a = simulate_hit_rate(0.01, 300, seed=7)
        b = simulate_hit_rate(0.01, 300, seed=7)
        assert a == b


class TestDerived:
    def test_diminishing_returns_jung_observation(self):
        # Jung et al.: TTLs beyond ~1000 s reap little extra benefit, at
        # the query rates their traces show (tens per hour per name).
        knee = diminishing_returns_ttl(arrival_rate=30 / 3600.0)
        assert knee < 1200

    def test_diminishing_returns_validation(self):
        with pytest.raises(ValueError):
            diminishing_returns_ttl(0.0)
        with pytest.raises(ValueError):
            diminishing_returns_ttl(1.0, target_fraction=1.5)

    def test_latency_model_interpolates(self):
        fast = latency_model(0.01, 86400, hit_latency_ms=1, miss_latency_ms=100)
        slow = latency_model(0.01, 60, hit_latency_ms=1, miss_latency_ms=100)
        assert 1 <= fast < slow <= 100


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_hit_rate_in_unit_interval(rate, ttl):
    assert 0.0 <= analytic_hit_rate(rate, ttl) < 1.0


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e5),
    st.floats(min_value=1.0, max_value=1e5),
)
def test_hit_rate_monotone(rate, ttl, extra):
    assert analytic_hit_rate(rate, ttl + extra) >= analytic_hit_rate(rate, ttl)
