"""Mid-shard world-snapshot resume: kill a shard, resume, merge unchanged.

Shard-boundary checkpoints (test_checkpoint.py) resume completed shards;
these tests cover the finer-grained layer — a shard killed *mid-run*
resumes from its last world snapshot, and the merged campaign is
byte-identical to one that never crashed.
"""

import pickle

import pytest

from repro.core.scenarios import scenario_uy_ns
from repro.runner import worldcache
from repro.runner.campaigns import campaign_fingerprint, centricity_shard
from repro.runner.checkpoint import CheckpointMismatch, CheckpointStore
from repro.runner.codec import decode_shard_payload
from repro.runner.executor import ShardExecutor
from repro.runner.merge import merge_result_sets
from repro.runner.shard import plan_shards

UY_KWARGS = dict(
    builder="uy",
    world_kwargs={"child_ns_ttl": 300},
    spec_kwargs=dict(qname="uy.", interval=600.0, duration=1800.0, description="snap"),
    qtype_name="NS",
)


@pytest.fixture(autouse=True)
def fresh_cache():
    worldcache.clear()
    yield
    worldcache.clear()


def _fingerprint():
    return campaign_fingerprint("centricity", campaign="snap-test", seed=0)


def _snapshot(run_dir, every=20, **extra):
    return {"run_dir": str(run_dir), "fingerprint": _fingerprint(),
            "every": every, **extra}


# -- store-level record handling ---------------------------------------------


def test_store_round_trips_world_snapshots(tmp_path):
    store = CheckpointStore(tmp_path, {"c": 1})
    assert store.load_world_snapshot(0) is None
    assert not store.has_world_snapshot(0)
    store.save_world_snapshot(0, {"cursor": 42})
    assert store.has_world_snapshot(0)
    assert store.load_world_snapshot(0) == {"cursor": 42}
    store.discard_world_snapshot(0)
    assert store.load_world_snapshot(0) is None


def test_store_rejects_foreign_snapshot_records(tmp_path):
    store = CheckpointStore(tmp_path, {"c": 1})
    store.save_world_snapshot(1, {"cursor": 7})
    # A record copied under another shard's filename is a corruption,
    # not a silent miss.
    record = pickle.loads((tmp_path / "wsnap-0001.pkl").read_bytes())
    (tmp_path / "wsnap-0002.pkl").write_bytes(pickle.dumps(record))
    with pytest.raises(CheckpointMismatch):
        store.load_world_snapshot(2)
    # A future layout, the one written before resolver caches changed
    # shape (version 1), the one whose run state held a row list
    # (version 2), the one whose registry held instruments (version 3) and
    # the one whose caches kept dead-mark sets (version 4): resuming any
    # would revive objects whose attributes no longer match the code.
    for version in (99, 1, 2, 3, 4):
        record["version"] = version
        (tmp_path / "wsnap-0001.pkl").write_bytes(pickle.dumps(record))
        with pytest.raises(
            CheckpointMismatch, match=f"unsupported world-snapshot version {version}"
        ):
            store.load_world_snapshot(1)


class _Stand:
    """Pickled, then renamed in the bytes to a class that does not exist."""


@pytest.mark.parametrize("module,name", [
    ("repro.predict.policy", "NoSuchPolicy"),  # the module is gone
    ("repro.resolver.policy", "EcsPolicy"),  # the module stays, the class is gone
])
def test_store_rejects_snapshots_naming_missing_code(tmp_path, module, name):
    # A snapshot written by an older build can name a class that build
    # had; unpickling fails before the version check can see the record.
    store = CheckpointStore(tmp_path, {"c": 1})
    record = {"version": 9, "shard": 0, "state": _Stand()}
    data = pickle.dumps(record, protocol=0).replace(
        f"{__name__}\n_Stand\n".encode(), f"{module}\n{name}\n".encode()
    )
    (tmp_path / "wsnap-0000.pkl").write_bytes(data)
    with pytest.raises(CheckpointMismatch, match=r"wsnap-0000\.pkl: .* names code"):
        store.load_world_snapshot(0)


def test_completed_shard_discards_its_snapshot(tmp_path):
    store = CheckpointStore(tmp_path, {"c": 1})
    store.save_world_snapshot(3, {"cursor": 1})
    store.save(3, {"done": True})
    assert not store.has_world_snapshot(3)
    assert store.has(3)


def test_clear_drops_snapshots_too(tmp_path):
    store = CheckpointStore(tmp_path, {"c": 1})
    store.save_world_snapshot(0, {"cursor": 1})
    store.save(1, {"done": True})
    store.clear()
    assert not store.has_world_snapshot(0)
    assert not store.has(1)


# -- shard-level crash and resume --------------------------------------------


def test_soft_crash_resumes_from_snapshot(tmp_path):
    shard = plan_shards(24, 3, 7)[1]
    clean = decode_shard_payload(centricity_shard(shard, **UY_KWARGS))

    snap = _snapshot(tmp_path, every=10, crash_after=15)
    worldcache.clear()
    with pytest.raises(RuntimeError, match="injected crash"):
        centricity_shard(shard, **UY_KWARGS, snapshot=snap)
    store = CheckpointStore(tmp_path, _fingerprint())
    assert store.has_world_snapshot(shard.index)

    resumed = decode_shard_payload(
        centricity_shard(shard, **UY_KWARGS, snapshot=snap)
    )
    assert resumed["results"].results == clean["results"].results
    assert resumed["metrics"] == clean["metrics"]


def test_soft_crash_with_leases_live_resumes_to_the_plain_run(tmp_path, monkeypatch):
    """Long TTL: by the crash nearly every query is answered from a hit
    lease, and the counters those hits owe sit in the probe loop, not in
    the world.  The snapshot must hold them settled, and the resumed run
    — which starts with no lease — must land on the plain run's bytes."""
    from repro.resolver.stub import StubResolver

    kwargs = {
        **UY_KWARGS,
        "world_kwargs": {"child_ns_ttl": 86400},
        "spec_kwargs": dict(UY_KWARGS["spec_kwargs"], duration=6000.0),
    }
    shard = plan_shards(24, 3, 7)[1]
    clean = decode_shard_payload(centricity_shard(shard, **kwargs))
    queries = len(clean["results"])

    walked = []
    stub_query = StubResolver.query
    monkeypatch.setattr(
        StubResolver, "query",
        lambda self, *args: walked.append(None) or stub_query(self, *args),
    )
    snap = _snapshot(tmp_path, every=10, crash_after=queries // 2)
    worldcache.clear()
    with pytest.raises(RuntimeError, match="injected crash"):
        centricity_shard(shard, **kwargs, snapshot=snap)
    # Leases were live when it crashed: most of that half never reached a stub.
    assert 0 < len(walked) < queries // 4

    resumed = decode_shard_payload(centricity_shard(shard, **kwargs, snapshot=snap))
    assert len(walked) < queries // 2
    assert resumed["results"].results == clean["results"].results
    assert resumed["metrics"] == clean["metrics"]


def test_serial_executor_retry_resumes_mid_shard(tmp_path):
    shards = plan_shards(24, 3, 7)
    baseline = [decode_shard_payload(centricity_shard(s, **UY_KWARGS)) for s in shards]

    worldcache.clear()
    kwargs = {**UY_KWARGS, "snapshot": _snapshot(tmp_path, every=10, crash_after=15)}
    executor = ShardExecutor(parallelism=1)
    outcomes = executor.run(centricity_shard, shards, kwargs)
    merged = merge_result_sets(
        [decode_shard_payload(o.value)["results"] for o in outcomes]
    )
    expected = merge_result_sets([p["results"] for p in baseline])
    assert merged.results == expected.results
    # Every retried shard crashed once, then resumed.
    assert all(o.attempts == 2 for o in outcomes)
    store = CheckpointStore(tmp_path, _fingerprint())
    assert not any(store.has_world_snapshot(s.index) for s in shards)


def test_pool_worker_hard_kill_resumes_mid_shard(tmp_path):
    shards = plan_shards(24, 3, 7)
    baseline = [decode_shard_payload(centricity_shard(s, **UY_KWARGS)) for s in shards]

    # crash_hard kills the worker process outright (os._exit): the pool
    # breaks, is rebuilt, and the resubmitted shard resumes from its
    # world snapshot instead of restarting.
    kwargs = {
        **UY_KWARGS,
        "snapshot": _snapshot(
            tmp_path, every=10, crash_after=15, crash_hard=True
        ),
    }
    executor = ShardExecutor(parallelism=2)
    outcomes = executor.run(centricity_shard, shards, kwargs)
    merged = merge_result_sets(
        [decode_shard_payload(o.value)["results"] for o in outcomes]
    )
    expected = merge_result_sets([p["results"] for p in baseline])
    assert merged.results == expected.results
    store = CheckpointStore(tmp_path, _fingerprint())
    assert not any(store.has_world_snapshot(s.index) for s in shards)


# -- campaign-level snapshot runs --------------------------------------------


def test_snapshot_campaign_matches_plain_run(tmp_path):
    plain = scenario_uy_ns(seed=5, probes=24, duration=1800.0, parallelism=1, shards=3)
    snapped = scenario_uy_ns(
        seed=5, probes=24, duration=1800.0, parallelism=1, shards=3,
        run_dir=str(tmp_path / "snap"), snapshot_every=25,
    )
    assert snapped.results.results == plain.results.results
    assert snapped.metrics.to_json() == plain.metrics.to_json()
    assert not list((tmp_path / "snap").glob("wsnap-*.pkl"))


def test_snapshot_cadence_is_not_part_of_the_fingerprint(tmp_path):
    run_dir = tmp_path / "t2"
    first = scenario_uy_ns(
        seed=5, probes=24, duration=1800.0, parallelism=1, shards=3,
        run_dir=str(run_dir), snapshot_every=25,
    )
    # Same campaign, different cadence: resumes (all shards cached)
    # instead of raising CheckpointMismatch.
    second = scenario_uy_ns(
        seed=5, probes=24, duration=1800.0, parallelism=1, shards=3,
        run_dir=str(run_dir), snapshot_every=100,
    )
    assert second.results.results == first.results.results
