"""Executor engine: serial/parallel parity, crash retry, checkpoints."""

import gc
import types

import pytest

from repro.runner.checkpoint import CheckpointStore
from repro.runner.executor import MAX_ATTEMPTS, ShardError, ShardExecutor
from repro.runner.progress import ProgressTracker
from repro.runner.shard import plan_shards


# Shard functions live at module level so worker processes can import them.


def unit_list(shard):
    return list(shard.unit_range())


def seed_echo(shard):
    return {"index": shard.index, "seed": shard.seed}


def flaky(shard, *, marker_dir, fail_index, fail_times):
    """Fails ``fail_times`` times on one shard, then succeeds.

    Attempt counting uses marker files so it also works across worker
    processes (each retry may land in a different worker).
    """
    import pathlib

    if shard.index == fail_index:
        markers = pathlib.Path(marker_dir)
        attempt = len(list(markers.glob(f"attempt-{shard.index}-*"))) + 1
        (markers / f"attempt-{shard.index}-{attempt}").touch()
        if attempt <= fail_times:
            raise RuntimeError(f"injected crash (attempt {attempt})")
    return list(shard.unit_range())


def always_fails(shard):
    raise RuntimeError("this shard never succeeds")


def record_execution(shard, *, marker_dir):
    import pathlib

    (pathlib.Path(marker_dir) / f"ran-{shard.index}").touch()
    return shard.index


def hard_crash_once(shard, *, marker_dir, fail_index):
    """Kills its worker process outright on the first attempt.

    ``os._exit`` skips all cleanup, so the pool sees a dead worker and
    breaks with BrokenProcessPool — the closest in-test stand-in for a
    segfault or OOM kill.
    """
    import os
    import pathlib

    if shard.index == fail_index:
        markers = pathlib.Path(marker_dir)
        attempt = len(list(markers.glob(f"hard-{shard.index}-*"))) + 1
        (markers / f"hard-{shard.index}-{attempt}").touch()
        if attempt == 1:
            os._exit(1)
    return list(shard.unit_range())


def hard_crash_each_once(shard, *, marker_dir, crashing):
    """The shards in ``crashing`` kill their worker on their first attempt.
    Any other shard outlives them: its first attempt sleeps until a crash
    kills it, and a later one naps half a second."""
    import os
    import pathlib
    import time

    marker = pathlib.Path(marker_dir) / f"hard-{shard.index}"
    first = not marker.exists()
    marker.touch()
    if shard.index not in crashing:
        time.sleep(10.0 if first else 0.5)
    elif first:
        os._exit(1)
    return shard.index


def mark_initialized(marker_dir):
    """Initializer hook: leaves one marker per process it ran in."""
    import os
    import pathlib

    (pathlib.Path(marker_dir) / f"init-{os.getpid()}").touch()


def _values(outcomes):
    return [outcome.value for outcome in outcomes]


def test_serial_executes_in_index_order():
    plan = plan_shards(10, 4, campaign_seed=0)
    outcomes = ShardExecutor(parallelism=1).run(unit_list, plan)
    assert [o.shard.index for o in outcomes] == [0, 1, 2, 3]
    assert [unit for value in _values(outcomes) for unit in value] == list(range(10))


def test_parallel_equals_serial():
    plan = plan_shards(12, 4, campaign_seed=3)
    serial = ShardExecutor(parallelism=1).run(seed_echo, plan)
    parallel = ShardExecutor(parallelism=4).run(seed_echo, plan)
    assert _values(serial) == _values(parallel)


def test_serial_retries_transient_crash(tmp_path):
    plan = plan_shards(6, 3, campaign_seed=1)
    outcomes = ShardExecutor(parallelism=1).run(
        flaky,
        plan,
        {"marker_dir": str(tmp_path), "fail_index": 1, "fail_times": MAX_ATTEMPTS - 1},
    )
    assert [unit for value in _values(outcomes) for unit in value] == list(range(6))
    assert outcomes[1].attempts == MAX_ATTEMPTS
    assert outcomes[0].attempts == 1


def test_parallel_retries_transient_crash(tmp_path):
    plan = plan_shards(8, 4, campaign_seed=2)
    outcomes = ShardExecutor(parallelism=2).run(
        flaky,
        plan,
        {"marker_dir": str(tmp_path), "fail_index": 2, "fail_times": 1},
    )
    assert [unit for value in _values(outcomes) for unit in value] == list(range(8))
    assert outcomes[2].attempts == 2


def test_serial_runs_a_closure_in_process():
    # Nothing is pickled: a closure works, and it sees this process's state.
    seen = []
    frozen = gc.get_freeze_count()

    def shard_fn(shard):
        seen.append((shard.index, gc.get_freeze_count()))
        return shard.index * 10

    outcomes = ShardExecutor(parallelism=1).run(shard_fn, plan_shards(6, 3, campaign_seed=1))
    assert _values(outcomes) == [0, 10, 20]
    # In index order, and no gc.freeze() around the in-process pool.
    assert seen == [(0, frozen), (1, frozen), (2, frozen)]


def test_serial_wall_time_is_the_shards_own_run(monkeypatch):
    # Every shard advances a fake clock by one second; had the clock
    # started at submission, shard k would read k + 1 seconds.
    clock = [0.0]
    monkeypatch.setattr(
        "repro.runner.executor.time", types.SimpleNamespace(monotonic=lambda: clock[0])
    )

    def tick(shard):
        clock[0] += 1.0
        return shard.index

    outcomes = ShardExecutor(parallelism=1).run(tick, plan_shards(3, 3, campaign_seed=1))
    assert [outcome.wall_seconds for outcome in outcomes] == [1.0, 1.0, 1.0]


def test_retry_budget_exhausted_raises_shard_error():
    plan = plan_shards(4, 2, campaign_seed=0)
    with pytest.raises(ShardError, match=f"after {MAX_ATTEMPTS} attempt"):
        ShardExecutor(parallelism=1).run(always_fails, plan)


def test_checkpointed_shards_are_not_recomputed(tmp_path):
    plan = plan_shards(6, 3, campaign_seed=4)
    store = CheckpointStore(tmp_path / "run", {"campaign": "exec-test"})
    markers = tmp_path / "markers"
    markers.mkdir()

    first = ShardExecutor(parallelism=1, checkpoint=store).run(
        record_execution, plan, {"marker_dir": str(markers)}
    )
    assert len(list(markers.glob("ran-*"))) == 3

    for marker in markers.glob("ran-*"):
        marker.unlink()
    second = ShardExecutor(parallelism=1, checkpoint=store).run(
        record_execution, plan, {"marker_dir": str(markers)}
    )
    # Nothing re-ran: every outcome came from the spill directory.
    assert list(markers.glob("ran-*")) == []
    assert all(outcome.cached for outcome in second)
    assert _values(second) == _values(first)


def test_interrupted_campaign_resumes_from_checkpoints(tmp_path):
    """The acceptance scenario: a campaign dies mid-run, the rerun only
    computes the missing shards."""
    plan = plan_shards(8, 4, campaign_seed=5)
    store = CheckpointStore(tmp_path / "run", {"campaign": "resume-test"})
    markers = tmp_path / "markers"
    markers.mkdir()

    crashing = ShardExecutor(parallelism=1, checkpoint=store)
    with pytest.raises(ShardError):
        crashing.run(
            flaky,
            plan,
            {"marker_dir": str(tmp_path), "fail_index": 3, "fail_times": 99},
        )
    assert store.completed_indices() == {0, 1, 2}

    resumed = ShardExecutor(parallelism=1, checkpoint=store).run(
        record_execution, plan, {"marker_dir": str(markers)}
    )
    # Only the crashed shard executed on resume.
    assert [m.name for m in markers.glob("ran-*")] == ["ran-3"]
    assert [o.cached for o in resumed] == [True, True, True, False]


def test_pool_rebuilt_after_hard_worker_crash(tmp_path):
    """A worker death breaks the whole ProcessPoolExecutor; the engine
    must rebuild the pool and retry instead of surfacing the raw
    BrokenProcessPool."""
    plan = plan_shards(8, 4, campaign_seed=8)
    outcomes = ShardExecutor(parallelism=2).run(
        hard_crash_once, plan, {"marker_dir": str(tmp_path), "fail_index": 1}
    )
    assert [unit for value in _values(outcomes) for unit in value] == list(range(8))
    # The crashing shard really ran twice: once killing its worker, once
    # to completion on the rebuilt pool.
    assert len(list(tmp_path.glob("hard-1-*"))) == 2


def test_no_shard_is_charged_for_two_other_shards_crashes(tmp_path):
    # Shards 1-3 each kill a worker while shard 0 is awaited.  The first
    # break is charged to shard 0; its retry then runs alone, so the next
    # two breaks are charged to the shards whose workers died.
    plan = plan_shards(4, 4, campaign_seed=8)
    outcomes = ShardExecutor(parallelism=2).run(
        hard_crash_each_once, plan, {"marker_dir": str(tmp_path), "crashing": {1, 2, 3}}
    )
    assert _values(outcomes) == [0, 1, 2, 3]
    assert outcomes[0].attempts == 2
    assert all(outcome.attempts <= 2 for outcome in outcomes)


def test_initializer_runs_once_in_serial_mode(tmp_path):
    plan = plan_shards(6, 3, campaign_seed=9)
    executor = ShardExecutor(
        parallelism=1, initializer=mark_initialized, initargs=(str(tmp_path),)
    )
    executor.run(unit_list, plan)
    # One process, one init call — not one per shard.
    assert len(list(tmp_path.glob("init-*"))) == 1


def test_initializer_runs_once_per_pool_worker(tmp_path):
    plan = plan_shards(8, 4, campaign_seed=9)
    executor = ShardExecutor(
        parallelism=2, initializer=mark_initialized, initargs=(str(tmp_path),)
    )
    executor.run(unit_list, plan)
    markers = list(tmp_path.glob("init-*"))
    assert 1 <= len(markers) <= 2
    assert all(m.name != f"init-{__import__('os').getpid()}" for m in markers)


def test_initializer_skipped_when_nothing_to_run(tmp_path):
    executor = ShardExecutor(
        parallelism=1, initializer=mark_initialized, initargs=(str(tmp_path),)
    )
    executor.run(unit_list, [])
    assert list(tmp_path.glob("init-*")) == []


def test_profile_path_writes_per_shard_stats(tmp_path):
    import pstats

    plan = plan_shards(6, 3, campaign_seed=10)
    base = tmp_path / "campaign.pstats"
    for parallelism in (1, 2):
        executor = ShardExecutor(parallelism=parallelism, profile_path=str(base))
        executor.run(unit_list, plan)
        for shard in plan:
            path = tmp_path / f"campaign.pstats.shard-{shard.index:04d}"
            assert path.exists()
            # The dump must be loadable profile data, not an empty file.
            assert pstats.Stats(str(path)).total_calls > 0
            path.unlink()


def test_profile_written_even_when_shard_crashes(tmp_path):
    plan = plan_shards(2, 2, campaign_seed=10)
    base = tmp_path / "crash.pstats"
    executor = ShardExecutor(parallelism=1, profile_path=str(base))
    with pytest.raises(ShardError):
        executor.run(always_fails, plan)
    assert (tmp_path / "crash.pstats.shard-0000").exists()


def test_tracker_sees_lifecycle_events(tmp_path):
    plan = plan_shards(4, 2, campaign_seed=7)
    tracker = ProgressTracker(campaign="exec-test")
    executor = ShardExecutor(parallelism=1, tracker=tracker)
    executor.run(
        flaky, plan, {"marker_dir": str(tmp_path), "fail_index": 0, "fail_times": 1}
    )
    # Serially, shard 0's retry runs before shard 1 starts.
    assert [(event.status, event.shard_index) for event in tracker.events] == [
        ("start", -1),
        ("shard-retry", 0),
        ("shard-done", 0),
        ("shard-done", 1),
        ("done", -1),
    ]
    # Progress telemetry accumulated the simulated query counts (here,
    # the per-shard unit-list lengths).
    assert tracker.events[-1].queries == 4
