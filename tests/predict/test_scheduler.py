"""Tests for the refresh-ahead scheduler: ordering, budget, backoff."""

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.metrics import MetricsRegistry
from repro.predict import RefreshScheduler


class Recorder:
    """A refresh callback that logs calls and returns scripted results."""

    def __init__(self, fail=()):
        self.calls = []
        self.fail = set(fail)

    def __call__(self, qname, qtype, when):
        self.calls.append((str(qname), qtype, when))
        return str(qname) not in self.fail


def name(label):
    return Name(f"{label}.example.")


class TestOrdering:
    def test_jobs_run_in_due_order(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("b"), RdataType.A, due=20.0)
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        assert scheduler.pump(30.0) == 2
        assert [call[0] for call in recorder.calls] == ["a.example.", "b.example."]

    def test_jobs_run_backdated_to_due_time(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        scheduler.pump(400.0)
        assert recorder.calls == [("a.example.", RdataType.A, 10.0)]

    def test_future_jobs_wait(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("a"), RdataType.A, due=50.0)
        assert scheduler.pump(49.9) == 0
        assert scheduler.pump(50.0) == 1

    def test_submission_order_breaks_ties(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("z"), RdataType.A, due=10.0)
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        scheduler.pump(10.0)
        assert [call[0] for call in recorder.calls] == ["z.example.", "a.example."]


class TestDedupe:
    def test_one_job_per_key(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        for _ in range(5):
            scheduler.schedule(name("a"), RdataType.A, due=10.0)
        assert len(scheduler) == 1
        assert scheduler.pump(10.0) == 1

    def test_resubmission_only_moves_earlier(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        assert not scheduler.schedule(name("a"), RdataType.A, due=20.0)
        assert scheduler.schedule(name("a"), RdataType.A, due=5.0)
        scheduler.pump(30.0)
        assert recorder.calls == [("a.example.", RdataType.A, 5.0)]

    def test_types_are_distinct_keys(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        scheduler.schedule(name("a"), RdataType.AAAA, due=10.0)
        assert scheduler.pump(10.0) == 2


class TestBudget:
    def test_burst_caps_simultaneous_refreshes(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(
            recorder, max_refresh_per_s=0.001, refresh_burst=2
        )
        for index in range(5):
            scheduler.schedule(name(f"k{index}"), RdataType.A, due=10.0)
        assert scheduler.pump(10.0) == 2  # bucket depth, rest suppressed

    def test_tokens_refill_over_time(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder, max_refresh_per_s=1.0, refresh_burst=1)
        scheduler.schedule(name("a"), RdataType.A, due=0.0)
        assert scheduler.pump(0.0) == 1
        scheduler.schedule(name("b"), RdataType.A, due=0.5)
        assert scheduler.pump(0.5) == 0  # only half a token back
        scheduler.schedule(name("b"), RdataType.A, due=1.5)
        assert scheduler.pump(1.5) == 1

    def test_suppressed_jobs_are_dropped_not_queued(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(
            recorder, max_refresh_per_s=0.001, refresh_burst=1
        )
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        scheduler.schedule(name("b"), RdataType.A, due=10.0)
        scheduler.pump(10.0)
        assert len(scheduler) == 0  # the over-budget job did not linger

    def test_unbudgeted_when_rate_is_none(self):
        recorder = Recorder()
        scheduler = RefreshScheduler(recorder)
        for index in range(50):
            scheduler.schedule(name(f"k{index}"), RdataType.A, due=0.0)
        assert scheduler.pump(0.0) == 50

    def test_total_volume_bounded_by_rate_times_duration(self):
        recorder = Recorder()
        rate, burst, duration = 2.0, 3, 100.0
        scheduler = RefreshScheduler(
            recorder, max_refresh_per_s=rate, refresh_burst=burst
        )
        executed = 0
        at = 0.0
        while at <= duration:
            for index in range(10):
                scheduler.schedule(name(f"k{index}"), RdataType.A, due=at)
            executed += scheduler.pump(at)
            at += 1.0
        assert executed <= rate * duration + burst


class TestFailureBackoff:
    def test_failed_key_backs_off(self):
        recorder = Recorder(fail={"a.example."})
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("a"), RdataType.A, due=0.0)
        scheduler.pump(0.0)
        # Resubmitted inside the backoff window: clamped to t=30.
        scheduler.schedule(name("a"), RdataType.A, due=1.0)
        assert scheduler.pump(29.9) == 0
        assert scheduler.pump(30.0) == 1

    def test_backoff_doubles_and_caps(self):
        recorder = Recorder(fail={"a.example."})
        scheduler = RefreshScheduler(recorder)
        at = 0.0
        # 30 s doubling per failure, capped at an hour.
        for expected_gap in (30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0, 3600.0):
            scheduler.schedule(name("a"), RdataType.A, due=at)
            assert scheduler.pump(at) == 1
            scheduler.schedule(name("a"), RdataType.A, due=at)
            assert scheduler.pump(at + expected_gap - 0.1) == 0
            at += expected_gap

    def test_success_clears_backoff(self):
        recorder = Recorder(fail={"a.example."})
        scheduler = RefreshScheduler(recorder)
        scheduler.schedule(name("a"), RdataType.A, due=0.0)
        scheduler.pump(0.0)
        recorder.fail.clear()  # upstream recovered
        scheduler.schedule(name("a"), RdataType.A, due=10.0)
        assert scheduler.pump(30.0) == 1  # ran at the backoff deadline
        scheduler.schedule(name("a"), RdataType.A, due=31.0)
        assert scheduler.pump(31.0) == 1  # no residual backoff


class TestMetrics:
    def test_counters(self):
        registry = MetricsRegistry()
        recorder = Recorder(fail={"bad.example."})
        scheduler = RefreshScheduler(
            recorder,
            max_refresh_per_s=0.001,
            refresh_burst=2,
            metrics=registry,
        )
        scheduler.schedule(name("good"), RdataType.A, due=0.0, expires_at=5.0)
        scheduler.schedule(name("bad"), RdataType.A, due=0.0)
        scheduler.schedule(name("extra"), RdataType.A, due=0.0)
        scheduler.schedule(name("reval"), RdataType.A, due=0.0, kind="revalidate")
        scheduler.pump(0.0)
        snapshot = registry.snapshot()
        assert snapshot.value("predict.refreshes") == 2
        assert snapshot.value("predict.refresh_suppressed") == 2
        assert snapshot.value("predict.refresh_failures") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RefreshScheduler(Recorder(), refresh_burst=0)
