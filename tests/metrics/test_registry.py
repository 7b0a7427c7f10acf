"""Unit tests for the metrics registry primitives."""

import pytest

from repro.metrics.registry import (
    FIXED_POINT,
    HOST,
    SIM,
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    MetricError,
    MetricsRegistry,
    log_buckets,
)
from repro.metrics.schema import validate_payload


class TestLogBuckets:
    def test_pure_function_of_arguments(self):
        assert log_buckets(0.1, 1000.0) == log_buckets(0.1, 1000.0)

    def test_covers_range_and_strictly_increases(self):
        bounds = log_buckets(0.5, 2000.0, per_decade=4)
        assert bounds[0] <= 0.5
        assert bounds[-1] >= 2000.0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_bad_ranges(self):
        with pytest.raises(MetricError):
            log_buckets(0.0, 10.0)
        with pytest.raises(MetricError):
            log_buckets(10.0, 10.0)
        with pytest.raises(MetricError):
            log_buckets(1.0, 10.0, per_decade=0)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1)

    def test_labeled_family(self):
        family = LabeledCounter("f")
        family.inc("a")
        family.inc("b", 3)
        family.inc("a")
        assert family.values == {"a": 2, "b": 3}
        assert list(family.payload()["values"]) == ["a", "b"]  # sorted
        with pytest.raises(MetricError):
            family.inc("a", -2)


class TestGauge:
    def test_high_watermark(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.record(5)
        gauge.record(2)  # lower value never lowers the watermark
        assert gauge.value == 5
        gauge.record(9)
        assert gauge.value == 9


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
            hist.observe(value)
        # <=1, <=10, <=100, overflow
        assert hist.counts == [2, 1, 1]
        assert hist.overflow == 1
        assert hist.count == 5
        assert hist.min == 0.5
        assert hist.max == 1000.0

    def test_fixed_point_sum_and_mean(self):
        hist = Histogram("h", bounds=(10.0,))
        hist.observe(0.1)
        hist.observe(0.2)
        assert hist.sum_fp == round(0.1 * FIXED_POINT) + round(0.2 * FIXED_POINT)
        assert hist.mean == pytest.approx(0.15)

    def test_empty_mean_is_none(self):
        assert Histogram("h", bounds=(1.0,)).mean is None

    def test_rejects_bad_bounds(self):
        with pytest.raises(MetricError):
            Histogram("h", bounds=())
        with pytest.raises(MetricError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("h", bounds=(2.0, 1.0))


class TestRegistry:
    def test_redeclaration_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c")
        second = registry.counter("c")
        assert first is second
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        assert registry.histogram("h", bounds=(1.0, 2.0)) is hist

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_domain_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", domain=SIM)
        with pytest.raises(MetricError):
            registry.counter("x", domain=HOST)

    def test_histogram_bounds_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_covers_every_metric_and_validates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.labeled_counter("f").inc("srv", 2)
        registry.gauge("g").record(7)
        registry.histogram("h", bounds=(1.0, 10.0)).observe(2.0)
        registry.counter("wall", domain=HOST).inc()
        snapshot = registry.snapshot()
        assert len(snapshot) == 5
        assert snapshot.value("c") == 3
        assert validate_payload(snapshot.to_payload()) == []
        # The sim-only view drops host telemetry but nothing else.
        sim_only = snapshot.without_host()
        assert len(sim_only) == 4
        assert sim_only.value("wall") is None


class TestSchemaRejectsCorruption:
    def _payload(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", bounds=(1.0, 10.0)).observe(3.0)
        return registry.snapshot().to_payload()

    def test_valid_baseline(self):
        assert validate_payload(self._payload()) == []

    def test_wrong_schema_id(self):
        payload = self._payload()
        payload["schema"] = "repro.metrics/v0"
        assert validate_payload(payload)

    def test_negative_counter(self):
        payload = self._payload()
        payload["metrics"]["c"]["value"] = -1
        assert validate_payload(payload)

    def test_counts_length_mismatch(self):
        payload = self._payload()
        payload["metrics"]["h"]["counts"] = [1]
        assert validate_payload(payload)

    def test_count_totals_mismatch(self):
        payload = self._payload()
        payload["metrics"]["h"]["count"] = 99
        assert validate_payload(payload)

    def test_bad_domain(self):
        payload = self._payload()
        payload["metrics"]["c"]["domain"] = "cluster"
        assert validate_payload(payload)

    def test_unknown_kind(self):
        payload = self._payload()
        payload["metrics"]["c"]["kind"] = "summary"
        assert validate_payload(payload)
