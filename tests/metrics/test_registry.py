"""Unit tests for the metrics registry primitives."""

import pytest

from repro.metrics.registry import (
    BATCH,
    COUNTER,
    FIXED_POINT,
    GAUGE,
    HISTOGRAM,
    HOST,
    LABELED_COUNTER,
    SIM,
    Histogram,
    MetricError,
    MetricsRegistry,
    log_buckets,
)
from repro.metrics.schema import validate_payload


class Owner:
    """Plain slots, as the objects that own facts keep them."""

    def __init__(self, count=0, by_label=None, peak=None, bounds=(1.0, 10.0)) -> None:
        self.count = count
        self.by_label = dict(by_label or {})
        self.peak = peak
        self.latency = Histogram("h", bounds)
        self.named: dict[str, int] = {}


def collected(*slots, domain=SIM, owners=None) -> MetricsRegistry:
    registry = MetricsRegistry()
    for owner in owners or [Owner()]:
        registry.collect(owner, slots, domain)
    return registry


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
        owner = Owner()
        registry = collected(("c", COUNTER, "count"), owners=[owner])
        owner.count += 1
        owner.count += 5
        assert registry.snapshot().value("c") == 6

    def test_labeled_family(self):
        owners = [Owner(by_label={"b": 3, "a": 1}), Owner(by_label={"a": 1})]
        registry = collected(("f", LABELED_COUNTER, "by_label"), owners=owners)
        values = registry.snapshot().value("f")
        assert values == {"a": 2, "b": 3}
        assert list(values) == ["a", "b"]  # sorted

    def test_named_counts_appear_with_their_first_count(self):
        first, second = Owner(), Owner()
        registry = collected((None, COUNTER, "named"), owners=[first, second])
        assert len(registry.snapshot()) == 0
        first.named["x"] = 0
        second.named.update(x=2, y=1)
        snapshot = registry.snapshot()
        assert snapshot.to_payload()["metrics"] == {
            "x": {"kind": "counter", "domain": SIM, "value": 2},
            "y": {"kind": "counter", "domain": SIM, "value": 1},
        }

    def test_named_counts_fold_with_a_counter_slot_of_their_name(self):
        owner = Owner(count=4)
        registry = collected(("x", COUNTER, "count"), (None, COUNTER, "named"), owners=[owner])
        owner.named["x"] = 3
        assert registry.snapshot().value("x") == 7
        registry.collect(owner, [("y", GAUGE, "peak")])
        owner.named["y"] = 1
        with pytest.raises(MetricError):
            registry.snapshot()


class TestGauge:
    def test_high_watermark(self):
        owners = [Owner(peak=5), Owner(peak=2), Owner()]
        registry = collected(("g", GAUGE, "peak"), owners=owners)
        assert registry.snapshot().value("g") == 5  # unrecorded (None) owners add nothing
        owners[2].peak = 9
        assert registry.snapshot().value("g") == 9
        assert collected(("g", GAUGE, "peak")).snapshot().value("g") is None


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
            hist.observe(value)
        payload = hist.payload()
        # <=1, <=10, <=100, overflow
        assert payload["counts"] == [2, 1, 1]
        assert payload["overflow"] == 1
        assert payload["count"] == 5
        assert payload["min"] == 0.5
        assert payload["max"] == 1000.0

    def test_fixed_point_sum_and_mean(self):
        hist = Histogram("h", bounds=(10.0,))
        hist.observe(0.1)
        hist.observe(0.2)
        assert hist.payload()["sum_fp"] == round(0.1 * FIXED_POINT) + round(0.2 * FIXED_POINT)
        assert hist.mean == pytest.approx(0.15)

    @pytest.mark.parametrize("observations", [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 5])
    def test_the_buffer_stays_one_batch_and_a_read_leaves_nothing_pending(self, observations):
        hist = Histogram("h", bounds=(10.0,))
        for value in range(observations):
            hist.observe(value)
        assert len(hist._pending) <= BATCH
        assert hist.payload()["count"] == observations
        assert hist._filled == 0
        for value in range(BATCH + 1):
            hist.observe(value)
        assert hist.payload()["count"] == observations + BATCH + 1
        assert len(hist._pending) == BATCH

    def test_a_bad_value_raises_at_the_fold_not_the_observation(self):
        hist = Histogram("h", bounds=(10.0,))
        hist.observe(1.0)
        hist.observe(float("nan"))
        with pytest.raises(ValueError):
            hist.payload()
        assert hist.payload()["count"] == 0  # the batch that held it is dropped
        hist.observe(2.0)
        assert hist.mean == 2.0

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
    def test_recollection_folds_both_owners(self):
        registry = collected(
            ("c", COUNTER, "count"), ("h", HISTOGRAM, "latency"),
            owners=[Owner(count=1), Owner(count=2)],
        )
        registry.collect(Owner(count=3), [("c", COUNTER, "count")])
        snapshot = registry.snapshot()
        assert snapshot.value("c") == 6
        assert snapshot.metrics["h"]["bounds"] == [1.0, 10.0]

    def test_kind_conflict_raises(self):
        registry = collected(("x", COUNTER, "count"))
        with pytest.raises(MetricError):
            registry.collect(Owner(), [("x", GAUGE, "peak")])

    def test_domain_conflict_raises(self):
        registry = collected(("x", COUNTER, "count"), domain=SIM)
        with pytest.raises(MetricError):
            registry.collect(Owner(), [("x", COUNTER, "count")], HOST)

    def test_histogram_bounds_conflict_raises(self):
        registry = collected(("h", HISTOGRAM, "latency"))
        with pytest.raises(MetricError):
            registry.collect(Owner(bounds=(1.0, 3.0)), [("h", HISTOGRAM, "latency")])

    def test_snapshot_covers_every_metric_and_validates(self):
        owner = Owner(count=3, by_label={"srv": 2}, peak=7)
        owner.latency.observe(2.0)
        registry = collected(
            ("c", COUNTER, "count"), ("f", LABELED_COUNTER, "by_label"),
            ("g", GAUGE, "peak"), ("h", HISTOGRAM, "latency"), owners=[owner],
        )
        registry.collect(Owner(count=1), [("wall", COUNTER, "count")], HOST)
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
        owner = Owner(count=2)
        owner.latency.observe(3.0)
        registry = collected(("c", COUNTER, "count"), ("h", HISTOGRAM, "latency"), owners=[owner])
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
