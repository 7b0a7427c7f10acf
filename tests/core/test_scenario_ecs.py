"""Tests for scenario_ecs_cdn (the ECS + CDN interplay figure)."""

import pytest

from repro.core.scenarios import scenario_ecs_cdn


class TestEcsCdn:
    @pytest.fixture(scope="class")
    def run(self):
        return scenario_ecs_cdn(
            seed=7, ttls=(60, 3600), subnets=6, rate_qps=0.6, duration=900.0
        )

    def test_covers_every_cell(self, run):
        assert {(c.mode, c.ttl) for c in run.cells} == {
            (mode, ttl)
            for mode in ("isp", "public", "public-ecs")
            for ttl in (60, 3600)
        }

    def test_isp_resolvers_always_hit_the_local_site(self, run):
        # Each ISP resolver sits in the client's own region, so the
        # resolver-address fallback already routes correctly.
        for ttl in (60, 3600):
            assert run.cell("isp", ttl).local_site_rate == 1.0

    def test_public_resolver_misroutes_without_ecs(self, run):
        # The anycast catchment sends AS clients to the EU egress; the
        # CDN sees only the egress address, so a third of the population
        # never reaches its local site — the misdirection ECS repairs.
        for ttl in (60, 3600):
            cell = run.cell("public", ttl)
            assert cell.local_site_rate < 1.0
            assert cell.scoped_entries == 0
            assert dict(cell.site_counts).get("as", 0) == 0

    def test_ecs_restores_local_routing(self, run):
        for ttl in (60, 3600):
            cell = run.cell("public-ecs", ttl)
            assert cell.local_site_rate == 1.0
            assert dict(cell.site_counts).get("as", 0) > 0

    def test_ecs_pays_with_cache_cardinality(self, run):
        # One scoped entry per client subnet, against at most one global
        # entry per egress without ECS — the cardinality trade-off.  At
        # TTL 60 entries expire mid-run and pruned buckets can end below
        # the full count; at TTL 3600 nothing expires inside the run.
        assert run.cell("public-ecs", 3600).scoped_entries == run.subnets
        for ttl in (60, 3600):
            ecs = run.cell("public-ecs", ttl)
            assert 0 < ecs.scoped_entries <= run.subnets
            assert ecs.hit_rate <= run.cell("public", ttl).hit_rate

    def test_higher_ttl_lifts_hit_rate_in_every_mode(self, run):
        for mode in ("isp", "public", "public-ecs"):
            assert (run.cell(mode, 3600).hit_rate
                    >= run.cell(mode, 60).hit_rate)
            assert (run.cell(mode, 3600).auth_queries
                    <= run.cell(mode, 60).auth_queries)

    def test_metrics_ride_along(self, run):
        assert run.metrics is not None
        exported = run.metrics.without_host()
        # The gauge is a per-cache high watermark; the two egress caches
        # split the client subnets, so the merged max is below the total.
        assert 0 < exported.value("cache.ecs_scoped_entries") <= run.subnets
        sites = exported.value("cdn.site_answers")
        assert all(count > 0 for count in sites.values())

    def test_profiles_cover_the_ttl_axis(self, run):
        assert set(run.profile("p50_ms", "public")) == {60, 3600}
        assert set(run.profile("hit_rate", "public-ecs")) == {60, 3600}

    def test_cell_lookup_raises_on_unknown(self, run):
        with pytest.raises(KeyError):
            run.cell("isp", 12345)


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        kwargs = dict(seed=7, ttls=(60,), subnets=4, rate_qps=0.5, duration=300.0)
        serial = scenario_ecs_cdn(parallelism=1, **kwargs)
        parallel = scenario_ecs_cdn(parallelism=4, **kwargs)
        assert parallel.metrics.to_json() == serial.metrics.to_json()
        assert parallel.cells == serial.cells


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown ecs mode"):
            scenario_ecs_cdn(modes=("isp", "hybrid"))

    def test_empty_ttls_rejected(self):
        with pytest.raises(ValueError):
            scenario_ecs_cdn(ttls=())
