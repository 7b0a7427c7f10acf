"""End-to-end campaign determinism: the runner's acceptance criteria.

The load-bearing guarantee (ISSUE 1): the T2 centricity scenario run
with ``parallelism=4`` produces a merged ResultSet *equal* to the
serial run, and a campaign killed mid-run resumes from checkpoints
without recomputing completed shards.
"""

import pytest

from repro.core.scenarios import (
    scenario_controlled_ttl,
    scenario_uy_ns,
)
from repro.crawler.crawl import Crawler, crawl_parallel
from repro.crawler.toplists import build_crawl_universe, planned_list_sizes
from repro.runner.checkpoint import CheckpointStore

SEED = 20191021
PROBES = 32
DURATION = 1200.0  # two 600 s rounds — enough for cache-sharing effects


@pytest.fixture(scope="module")
def serial_uy_run():
    return scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION, parallelism=1, shards=4
    )


def test_t2_centricity_parallel_equals_serial(serial_uy_run):
    parallel = scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION, parallelism=4, shards=4
    )
    assert parallel.results.results == serial_uy_run.results.results
    assert parallel.summary == serial_uy_run.summary
    assert parallel.breakdown == serial_uy_run.breakdown


def test_t2_centricity_is_shard_plan_deterministic(serial_uy_run):
    # Two workers, same 4-shard plan: still identical — results depend on
    # the plan, never on the worker count.
    two_workers = scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION, parallelism=2, shards=4
    )
    assert two_workers.results.results == serial_uy_run.results.results


def test_t2_default_shard_plan_ignores_worker_count(serial_uy_run):
    # shards unset: the plan falls back to the fixed DEFAULT_SHARDS (4),
    # never to the worker count — so an odd parallelism still reproduces
    # the pinned-plan run exactly.
    defaulted = scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION, parallelism=3
    )
    assert defaulted.results.results == serial_uy_run.results.results


def test_t2_probe_ids_unique_across_shards(serial_uy_run):
    assert len(serial_uy_run.results.probe_ids()) <= PROBES
    assert all(0 <= pid < PROBES for pid in serial_uy_run.results.probe_ids())


def test_t2_campaign_resumes_without_recompute(tmp_path, serial_uy_run):
    run_dir = tmp_path / "t2"
    first = scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION,
        parallelism=1, shards=4, run_dir=str(run_dir),
    )
    # Simulate a mid-run kill: one shard's spill is missing.
    spills = sorted(run_dir.glob("shard-*.pkl"))
    assert len(spills) == 4
    spills[2].unlink()

    events = []
    resumed = scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION,
        parallelism=1, shards=4, run_dir=str(run_dir),
        progress=events.append,
    )
    cached = [e.shard_index for e in events if e.status == "shard-done" and e.cached]
    fresh = [e.shard_index for e in events if e.status == "shard-done" and not e.cached]
    assert sorted(cached) == [0, 1, 3]
    assert fresh == [2]
    assert resumed.results.results == first.results.results
    assert resumed.results.results == serial_uy_run.results.results


def test_t2_run_dir_rejects_other_campaign(tmp_path):
    run_dir = tmp_path / "t2"
    scenario_uy_ns(
        seed=SEED, probes=PROBES, duration=DURATION,
        parallelism=1, shards=4, run_dir=str(run_dir),
    )
    from repro.runner.checkpoint import CheckpointMismatch

    with pytest.raises(CheckpointMismatch):
        scenario_uy_ns(
            seed=SEED + 1, probes=PROBES, duration=DURATION,
            parallelism=1, shards=4, run_dir=str(run_dir),
        )


def test_t2_run_dir_checkpointed_with_payload_v3_is_rejected(tmp_path):
    import json

    from repro.runner.checkpoint import CheckpointMismatch

    run_dir = tmp_path / "t2"
    campaign = dict(
        seed=SEED, probes=PROBES, duration=DURATION,
        parallelism=1, shards=4, run_dir=str(run_dir),
    )
    scenario_uy_ns(**campaign)
    # The same campaign as older builds recorded it: v3 shard spills hold
    # row-by-row envelopes, and v4 metrics still carry the deleted
    # ``net.retry_budget_exhausted``; neither may be merged.
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["fingerprint"]["payload_version"] == 5
    for older in (3, 4):
        manifest["fingerprint"]["payload_version"] = older
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatch, match="different campaign"):
            scenario_uy_ns(**campaign)


def test_controlled_ttl_parallel_equals_legacy_serial():
    # The five §6.2 runs shard one-per-run, so the parallel campaign
    # reproduces the legacy serial scenario verbatim.
    legacy = scenario_controlled_ttl(seed=3, probes=16, duration=DURATION)
    sharded = scenario_controlled_ttl(
        seed=3, probes=16, duration=DURATION, parallelism=2
    )
    assert list(sharded) == list(legacy)
    for label in legacy:
        assert sharded[label].results.results == legacy[label].results.results
        assert sharded[label].auth_queries == legacy[label].auth_queries
        assert sharded[label].client_summary == legacy[label].client_summary


CRAWL_SCALE = 0.0001


def test_crawl_parallel_equals_plain_serial_crawl():
    universe = build_crawl_universe(scale=CRAWL_SCALE, seed=5)
    serial = Crawler(universe).crawl()
    merged, queries, _ = crawl_parallel(
        scale=CRAWL_SCALE, seed=5, parallelism=3, shards=5
    )
    assert merged.records == serial.records
    assert queries > 0
    assert sum(planned_list_sizes(CRAWL_SCALE).values()) == len(merged)


def test_crawl_default_shards_ignore_worker_count():
    one, _, _ = crawl_parallel(scale=CRAWL_SCALE, seed=5, parallelism=1)
    two, _, _ = crawl_parallel(scale=CRAWL_SCALE, seed=5, parallelism=2)
    assert one.records == two.records


def test_crawl_checkpoint_resume(tmp_path):
    run_dir = tmp_path / "crawl"
    first, _, _ = crawl_parallel(
        scale=CRAWL_SCALE, seed=5, parallelism=1, shards=3, run_dir=str(run_dir)
    )
    events = []
    second, _, _ = crawl_parallel(
        scale=CRAWL_SCALE, seed=5, parallelism=1, shards=3,
        run_dir=str(run_dir), progress=events.append,
    )
    assert second.records == first.records
    done = [e for e in events if e.status == "shard-done"]
    assert all(e.cached for e in done)
