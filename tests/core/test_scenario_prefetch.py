"""Tests for scenario_prefetch_tradeoff (the repro.predict figure)."""

import pytest

from repro.core.scenarios import scenario_prefetch_tradeoff


class TestTradeoff:
    @pytest.fixture(scope="class")
    def run(self):
        return scenario_prefetch_tradeoff(
            seed=7, ttls=(60, 86400), duration=600.0
        )

    def test_covers_every_cell(self, run):
        assert {(c.mode, c.ttl) for c in run.cells} == {
            (mode, ttl)
            for mode in ("off", "onhit", "ahead")
            for ttl in (60, 86400)
        }

    def test_refresh_ahead_lifts_short_ttl_hit_rate(self, run):
        # The whole point of the figure: at TTL 60 s refresh-ahead keeps
        # the hot set warm, so its hit rate beats predict-off.
        assert run.cell("ahead", 60).hit_rate > run.cell("off", 60).hit_rate
        assert run.cell("ahead", 60).refreshes > 0

    def test_long_ttl_modes_converge(self, run):
        # Nothing expires inside a 600 s run at TTL 86400: no refreshes,
        # no stale answers, identical authoritative volume.
        for mode in ("off", "onhit", "ahead"):
            cell = run.cell(mode, 86400)
            assert cell.refreshes == 0
            assert cell.stale_answered == 0
        assert (run.cell("ahead", 86400).auth_queries
                == run.cell("off", 86400).auth_queries)

    def test_predict_metrics_ride_along(self, run):
        assert run.metrics is not None
        exported = run.metrics.without_host()
        assert exported.value("predict.refreshes") > 0
        # auth.queries is labelled per server; every label saw traffic.
        assert all(v > 0 for v in exported.value("auth.queries").values())

    def test_profiles_cover_the_ttl_axis(self, run):
        assert set(run.profile("p99_ms", "ahead")) == {60, 86400}
        assert set(run.profile("auth_queries", "off")) == {60, 86400}

    def test_cell_lookup_raises_on_unknown(self, run):
        with pytest.raises(KeyError):
            run.cell("off", 12345)


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        kwargs = dict(seed=7, ttls=(60,), duration=300.0)
        serial = scenario_prefetch_tradeoff(parallelism=1, **kwargs)
        parallel = scenario_prefetch_tradeoff(parallelism=3, **kwargs)
        assert parallel.metrics.to_json() == serial.metrics.to_json()
        assert parallel.cells == serial.cells


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetch mode"):
            scenario_prefetch_tradeoff(modes=("off", "turbo"))

    def test_empty_ttls_rejected(self):
        with pytest.raises(ValueError):
            scenario_prefetch_tradeoff(ttls=())
