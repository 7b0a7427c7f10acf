"""Checkpoint store: spill, resume, fingerprint guarding, atomicity."""

import multiprocessing

import pytest

from repro.runner.checkpoint import CheckpointMismatch, CheckpointStore


def test_save_load_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path / "run", {"kind": "test", "seed": 1})
    payload = {"numbers": [1, 2, 3], "nested": {"deep": True}}
    store.save(0, payload)
    assert store.load(0) == payload
    assert store.has(0)
    assert not store.has(1)


def test_completed_indices(tmp_path):
    store = CheckpointStore(tmp_path, {"seed": 0})
    for index in (0, 2, 7):
        store.save(index, index * 10)
    assert store.completed_indices() == {0, 2, 7}


def test_reopen_same_fingerprint_resumes(tmp_path):
    CheckpointStore(tmp_path, {"seed": 5}).save(1, "payload")
    reopened = CheckpointStore(tmp_path, {"seed": 5})
    assert reopened.completed_indices() == {1}
    assert reopened.load(1) == "payload"


def test_reopen_different_fingerprint_rejected(tmp_path):
    CheckpointStore(tmp_path, {"seed": 5})
    with pytest.raises(CheckpointMismatch, match="different campaign"):
        CheckpointStore(tmp_path, {"seed": 6})


def test_fingerprint_key_order_is_irrelevant(tmp_path):
    CheckpointStore(tmp_path, {"a": 1, "b": 2})
    CheckpointStore(tmp_path, {"b": 2, "a": 1})  # must not raise


def test_unserializable_fingerprint_rejected(tmp_path):
    with pytest.raises(TypeError, match="JSON-serializable"):
        CheckpointStore(tmp_path, {"bad": object()})


def test_discard_and_clear(tmp_path):
    store = CheckpointStore(tmp_path, {})
    store.save(0, "a")
    store.save(1, "b")
    store.discard(0)
    assert store.completed_indices() == {1}
    store.clear()
    assert store.completed_indices() == set()
    # The manifest survives a clear: the run dir still belongs to this
    # campaign and can be reused.
    CheckpointStore(tmp_path, {})


def _open_at_once(run_dir, barrier):
    barrier.wait(timeout=30)
    CheckpointStore(run_dir, {"seed": 0})


def test_workers_opening_one_fresh_run_dir_at_once(tmp_path):
    # Shard workers with mid-shard snapshots each open the store, and on a
    # fresh run directory each one writes the manifest.  With one shared
    # temporary name, one worker's rename can take the file another is
    # about to rename, and that worker dies on FileNotFoundError.
    context = multiprocessing.get_context("fork")
    for attempt in range(10):
        barrier = context.Barrier(4)
        workers = [
            context.Process(target=_open_at_once, args=(tmp_path / f"run-{attempt}", barrier))
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert [worker.exitcode for worker in workers] == [0, 0, 0, 0]
        assert list((tmp_path / f"run-{attempt}").glob("*.tmp")) == []


def test_no_temp_files_left_behind(tmp_path):
    store = CheckpointStore(tmp_path, {"seed": 0})
    store.save(3, list(range(1000)))
    leftovers = list(tmp_path.glob("*.tmp"))
    assert leftovers == []
