"""Tests for the space-saving popularity tracker."""

import pytest

from repro.predict import PopularityTracker


class TestRecording:
    def test_counts_arrivals(self):
        tracker = PopularityTracker(capacity=4)
        tracker.record("a")
        tracker.record("a")
        tracker.record("b")
        assert tracker.count("a") == 2
        assert tracker.count("b") == 1
        assert tracker.count("zzz") == 0

    def test_bounded_at_capacity(self):
        tracker = PopularityTracker(capacity=3)
        for index in range(50):
            tracker.record(f"key{index}")
        assert len(tracker) == 3

    def test_eviction_keeps_the_heavy_hitter(self):
        tracker = PopularityTracker(capacity=2)
        for _ in range(10):
            tracker.record("hot")
        tracker.record("one")
        tracker.record("two")  # evicts "one", not "hot"
        assert "hot" in tracker
        assert "one" not in tracker

    def test_inherited_count_carries_error(self):
        tracker = PopularityTracker(capacity=1, min_hits=2)
        tracker.record("a")
        tracker.record("a")
        tracker.record("b")  # inherits a's count of 2
        assert tracker.count("b") == 3
        assert tracker.guaranteed_count("b") == 1  # only one provable arrival
        assert not tracker.is_hot("b")


class TestHotness:
    def test_hot_after_min_hits(self):
        tracker = PopularityTracker(capacity=4, min_hits=3)
        tracker.record("a")
        tracker.record("a")
        assert not tracker.is_hot("a")
        tracker.record("a")
        assert tracker.is_hot("a")


class TestDeterminism:
    def test_same_sequence_same_state(self):
        sequence = [f"key{(index * 7) % 5}" for index in range(200)]
        one = PopularityTracker(capacity=3)
        two = PopularityTracker(capacity=3)
        for key in sequence:
            one.record(key)
            two.record(key)
        for key in set(sequence):
            assert (key in one, one.count(key), one.guaranteed_count(key)) == (
                key in two, two.count(key), two.guaranteed_count(key)
            )

    def test_heap_compaction_is_invisible(self):
        tracker = PopularityTracker(capacity=2)
        for index in range(1000):  # far past the compaction threshold
            tracker.record(f"key{index % 3}")
        assert len(tracker) == 2
        assert sum(tracker.count(f"key{i}") for i in range(3)) >= 1000 // 3


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PopularityTracker(capacity=0)

    def test_rejects_bad_min_hits(self):
        with pytest.raises(ValueError):
            PopularityTracker(capacity=1, min_hits=0)

    def test_clear(self):
        tracker = PopularityTracker(capacity=4)
        tracker.record("a")
        tracker.clear()
        assert len(tracker) == 0
        assert tracker.count("a") == 0
