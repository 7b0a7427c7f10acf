"""Tests for the space-saving popularity tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predict import PopularityTracker


class TestRecording:
    def test_counts_arrivals(self):
        tracker = PopularityTracker(capacity=4)
        tracker.record("a", 0.0)
        tracker.record("a", 1.0)
        tracker.record("b", 2.0)
        assert tracker.count("a") == 2
        assert tracker.count("b") == 1
        assert tracker.count("zzz") == 0

    def test_bounded_at_capacity(self):
        tracker = PopularityTracker(capacity=3)
        for index in range(50):
            tracker.record(f"key{index}", float(index))
        assert len(tracker) == 3

    def test_eviction_keeps_the_heavy_hitter(self):
        tracker = PopularityTracker(capacity=2)
        for at in range(10):
            tracker.record("hot", float(at))
        tracker.record("one", 10.0)
        tracker.record("two", 11.0)  # evicts "one", not "hot"
        assert "hot" in tracker
        assert "one" not in tracker

    def test_inherited_count_carries_error(self):
        tracker = PopularityTracker(capacity=1, min_hits=2)
        tracker.record("a", 0.0)
        tracker.record("a", 1.0)
        tracker.record("b", 2.0)  # inherits a's count of 2
        assert tracker.count("b") == 3
        assert tracker.guaranteed_count("b") == 1  # only one provable arrival
        assert not tracker.is_hot("b")


class TestHotness:
    def test_hot_after_min_hits(self):
        tracker = PopularityTracker(capacity=4, min_hits=3)
        tracker.record("a", 0.0)
        tracker.record("a", 1.0)
        assert not tracker.is_hot("a")
        tracker.record("a", 2.0)
        assert tracker.is_hot("a")

    def test_rate_is_guaranteed_arrivals_per_second(self):
        tracker = PopularityTracker(capacity=4)
        for at in range(10):
            tracker.record("a", float(at))
        assert tracker.rate("a", now=10.0) == pytest.approx(1.0)
        assert tracker.rate("nope", now=10.0) == 0.0


class TestDeterminism:
    def test_same_sequence_same_state(self):
        sequence = [f"key{(index * 7) % 5}" for index in range(200)]
        one = PopularityTracker(capacity=3)
        two = PopularityTracker(capacity=3)
        for at, key in enumerate(sequence):
            one.record(key, float(at))
            two.record(key, float(at))
        assert one.snapshot() == two.snapshot()

    def test_heap_compaction_is_invisible(self):
        tracker = PopularityTracker(capacity=2)
        for index in range(1000):  # far past the compaction threshold
            tracker.record(f"key{index % 3}", float(index))
        assert len(tracker) == 2
        assert sum(tracker.count(f"key{i}") for i in range(3)) >= 1000 // 3


class TestSnapshotMerge:
    def test_merge_sums_counts(self):
        one = PopularityTracker(capacity=4)
        two = PopularityTracker(capacity=4)
        for at in range(3):
            one.record("a", float(at))
        for at in range(2):
            two.record("a", float(10 + at))
        two.record("b", 12.0)
        one.merge(two.snapshot())
        assert one.count("a") == 5
        assert one.count("b") == 1

    def test_merge_trims_to_capacity(self):
        one = PopularityTracker(capacity=2)
        two = PopularityTracker(capacity=2)
        one.record("a", 0.0)
        one.record("a", 1.0)
        two.record("b", 0.0)
        two.record("c", 1.0)
        one.merge(two.snapshot())
        assert len(one) == 2
        assert "a" in one  # the heaviest key survives the trim

    def test_merge_takes_earliest_first_seen(self):
        one = PopularityTracker(capacity=4)
        two = PopularityTracker(capacity=4)
        one.record("a", 5.0)
        one.record("a", 6.0)
        two.record("a", 1.0)
        two.record("a", 2.0)
        one.merge(two.snapshot())
        # 4 guaranteed arrivals since t=1 → rate uses the earlier stamp.
        assert one.rate("a", now=5.0) == pytest.approx(1.0)


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PopularityTracker(capacity=0)

    def test_rejects_bad_min_hits(self):
        with pytest.raises(ValueError):
            PopularityTracker(capacity=1, min_hits=0)

    def test_clear(self):
        tracker = PopularityTracker(capacity=4)
        tracker.record("a", 0.0)
        tracker.clear()
        assert len(tracker) == 0
        assert tracker.count("a") == 0


class TestAging:
    def test_age_halves_counts_and_errors(self):
        tracker = PopularityTracker(capacity=2)
        for at in range(8):
            tracker.record("hot", float(at))
        tracker.record("one", 10.0)
        tracker.record("two", 11.0)  # evicts "one"; "two" inherits error 1
        assert tracker.count("two") == 2
        dropped = tracker.age(100.0)
        assert dropped == 0
        assert tracker.count("hot") == 4
        assert tracker.count("two") == 1
        assert tracker.guaranteed_count("two") == 1  # error 1 // 2 == 0

    def test_age_drops_keys_that_reach_zero(self):
        tracker = PopularityTracker(capacity=4)
        tracker.record("once", 0.0)
        tracker.record("twice", 0.0)
        tracker.record("twice", 1.0)
        dropped = tracker.age(10.0)
        assert dropped == 1
        assert "once" not in tracker
        assert "twice" in tracker
        assert tracker.count("twice") == 1

    def test_window_triggers_aging_from_record(self):
        tracker = PopularityTracker(capacity=4, window_s=60.0)
        tracker.record("a", 0.0)
        tracker.record("a", 1.0)
        tracker.record("a", 2.0)
        tracker.record("b", 59.9)  # within the window: no decay yet
        assert tracker.count("a") == 3
        tracker.record("b", 60.0)  # boundary: halve, then count the arrival
        assert tracker.count("a") == 1
        assert tracker.count("b") == 1  # old 1 // 2 == 0 dropped, re-admitted
        assert tracker.guaranteed_count("b") == 1

    def test_no_window_never_decays(self):
        tracker = PopularityTracker(capacity=4)
        tracker.record("a", 0.0)
        tracker.record("a", 1e9)
        assert tracker.count("a") == 2

    def test_aging_keeps_eviction_order_sane(self):
        """After the heap rebuild, the minimum-count key is still the
        one evicted when a newcomer arrives at capacity."""
        tracker = PopularityTracker(capacity=2)
        for at in range(9):
            tracker.record("hot", float(at))
        tracker.record("warm", 10.0)
        tracker.record("warm", 11.0)
        tracker.age(20.0)  # hot: 4, warm: 1
        tracker.record("new", 21.0)  # must evict "warm", not "hot"
        assert "hot" in tracker
        assert "warm" not in tracker

    def test_clear_resets_window(self):
        tracker = PopularityTracker(capacity=4, window_s=10.0)
        tracker.record("a", 0.0)
        tracker.clear()
        tracker.record("b", 1000.0)  # fresh window starts here, no age yet
        assert tracker.count("b") == 1
        tracker.record("b", 1005.0)
        assert tracker.count("b") == 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            PopularityTracker(capacity=4, window_s=0.0)


arrival_keys = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])

events = st.lists(
    st.one_of(arrival_keys, st.just("<age>")), min_size=0, max_size=60
)


class TestAgingProperties:
    @given(events=events)
    @settings(max_examples=200, deadline=None)
    def test_aging_never_resurrects_or_promotes(self, events):
        """Replaying arrivals interleaved with agings: aging only ever
        shrinks — no evicted key reappears, capacity holds, no key's
        guaranteed count grows, and bounds stay non-negative."""
        tracker = PopularityTracker(capacity=3, min_hits=2)
        now = 0.0
        for event in events:
            now += 1.0
            if event == "<age>":
                before = {
                    key: tracker.guaranteed_count(key)
                    for key, _, _, _ in tracker.snapshot()
                }
                tracked_before = set(before)
                tracker.age(now)
                tracked_after = {key for key, _, _, _ in tracker.snapshot()}
                assert tracked_after <= tracked_before
                for key in tracked_after:
                    assert tracker.guaranteed_count(key) <= before[key]
            else:
                tracker.record(event, now)
            assert len(tracker) <= tracker.capacity
            for key, count, error, _ in tracker.snapshot():
                assert count >= 1
                assert error >= 0
                assert count - error >= 0
