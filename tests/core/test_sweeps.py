"""Tests for repro.core.sweeps."""

import pytest

from repro.core.scenarios import DdosTierResult, scenario_ddos_resilience
from repro.core.sweeps import ttl_latency_sweep


class TestTtlLatencySweep:
    @pytest.fixture(scope="class")
    def points(self):
        return ttl_latency_sweep(ttls=(60, 3600, 86400), probes=80, seed=2)

    def test_one_point_per_ttl(self, points):
        assert [p.child_ns_ttl for p in points] == [60, 3600, 86400]

    def test_latency_decreases_with_ttl(self, points):
        medians = [p.median_ms for p in points]
        assert medians[0] > medians[-1]

    def test_long_ttl_reaches_cache_latency(self, points):
        # At TTL 86400 almost every query is a warm-cache hit: a few ms.
        assert points[-1].median_ms < 20.0

    def test_samples_recorded(self, points):
        assert all(p.samples > 0 for p in points)


class TestDdosAvailabilitySweep:
    """Availability vs TTL, read off the DDoS grid's plain tiers."""

    TTLS = (60, 1800, 3600, 86400)

    @pytest.fixture(scope="class")
    def points(self):
        run = scenario_ddos_resilience(seed=1, ttls=self.TTLS, attack_seconds=3600.0)
        return [run.cell(False, ttl) for ttl in self.TTLS]

    def test_availability_monotone_in_ttl(self, points):
        availability = [p.availability for p in points]
        assert availability == sorted(availability)

    def test_short_ttl_goes_dark(self, points):
        by_ttl = {p.ttl: p for p in points}
        assert by_ttl[60].availability < 0.1

    def test_ttl_longer_than_attack_survives(self, points):
        """Moura et al. / paper §6.1: caches outliving the attack keep
        answering throughout."""
        by_ttl = {p.ttl: p for p in points}
        assert by_ttl[86400].availability == 1.0

    def test_ttl_equal_to_attack_mostly_survives(self, points):
        by_ttl = {p.ttl: p for p in points}
        assert by_ttl[3600].availability > 0.9

    def test_serve_stale_rescues_short_ttls(self):
        run = scenario_ddos_resilience(seed=1, ttls=(60,), attack_seconds=1800.0)
        plain, stale = run.cell(False, 60), run.cell(True, 60)
        assert stale.availability > plain.availability
        assert stale.availability == 1.0
        assert stale.served_stale_fraction > 0.5

    def test_point_shape(self, points):
        assert all(isinstance(p, DdosTierResult) for p in points)
        assert all(0.0 <= p.availability <= 1.0 for p in points)
