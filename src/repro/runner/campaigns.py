"""Picklable per-shard entry points for the paper's campaigns.

Worker processes cannot ship a live simulated Internet across a pipe, so
each shard *derives* its slice of the campaign from the shard seed: a
world leased from the per-process :mod:`repro.runner.worldcache` (built
once per worker, then reset to the shard seed instead of reconstructed),
a fresh probe population covering only the shard's unit range (probe ids
offset by ``shard.start`` so merged ids stay globally unique), and a
fresh measurement.  Everything a shard does is a pure function of
``(shard, kwargs)`` — the determinism contract of
:mod:`repro.runner.shard` — so any worker, any worker count, and any
resume order produce byte-identical shard outputs.  Seeded world reset
is exactly equivalent to a rebuild because world *structure* never
depends on the seed (asserted by the worldcache tests).

Shard return values are :func:`repro.runner.codec.encode_shard_payload`
envelopes; :func:`repro.core.campaign.run_campaign` decodes them after
the executor returns.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runner.codec import PAYLOAD_VERSION as SHARD_PAYLOAD_VERSION
from repro.runner.codec import encode_shard_payload
from repro.runner.shard import Shard

__all__ = [
    "centricity_shard",
    "crawl_shard",
    "cell_shard",
    "campaign_fingerprint",
    "SHARD_PAYLOAD_VERSION",
]


def campaign_fingerprint(kind: str, **params: Any) -> dict[str, Any]:
    """The JSON-able identity of a campaign, used to guard run dirs."""
    return {
        "kind": kind,
        "payload_version": SHARD_PAYLOAD_VERSION,
        "params": dict(sorted(params.items())),
    }


# ------------------------------------------------------------- centricity


#: World builders a centricity shard may use, by name (names, not
#: callables, cross the process boundary).
def _world_builders():
    from repro.core.worlds import build_googleco_world, build_uy_world

    return {"uy": build_uy_world, "googleco": build_googleco_world}


def centricity_shard(
    shard: Shard,
    *,
    builder: str,
    world_kwargs: dict[str, Any],
    spec_kwargs: dict[str, Any],
    qtype_name: str,
    fault_plan: Optional[dict[str, Any]] = None,
    predict: bool = False,
    snapshot: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Run one shard of an active centricity campaign (§3.2/§3.3).

    Leases the shard's world from the per-process
    :mod:`repro.runner.worldcache` (reset to ``shard.seed`` rather than
    rebuilt), attaches a population of ``shard.count`` probes whose ids
    start at ``shard.start``, and runs the measurement spec against
    every vantage point.  Returns a
    :func:`repro.runner.codec.encode_shard_payload` envelope — the
    shard's sim-domain metrics snapshot rides along so the merged
    campaign observes the whole simulated world exactly.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan` payload) schedules
    the same failures in every shard; the injector RNG is derived from
    the plan seed *and* ``shard.seed``, so per-shard draws are
    independent yet reproducible for any worker count.

    ``snapshot`` configures mid-shard world-snapshot/resume (not part
    of the campaign fingerprint — it changes *when* state hits disk,
    never the results)::

        {"run_dir": path, "fingerprint": dict, "every": int,
         "crash_after": int | None, "crash_hard": bool}

    With ``every > 0`` the measurement kernel checkpoints the whole
    world-level campaign state (measurement + run state + metrics
    registry, one pickled graph) every ``every`` queries.  If a
    snapshot exists when the shard starts, the run resumes from it —
    worldcache bypassed, the pickled world already carries the exact
    mid-run RNG/cache/fault state.  ``crash_after``/``crash_hard`` are
    test hooks: after the first snapshot at or past that query count a
    fresh (non-resumed) run raises (or ``os._exit(2)`` when hard,
    killing the pool worker) so the resume path can be exercised.
    """
    from repro.atlas.measurement import Measurement, MeasurementSpec
    from repro.core.experiment import make_population
    from repro.dns.rdtypes import RdataType
    from repro.metrics.registry import MetricsRegistry
    from repro.runner import worldcache

    config = snapshot or {}
    every = int(config.get("every") or 0)
    store = None
    if config.get("run_dir") is not None:
        from repro.runner.checkpoint import CheckpointStore

        store = CheckpointStore(config["run_dir"], config["fingerprint"])

    measurement = None
    state = None
    registry = None
    if store is not None:
        snap = store.load_world_snapshot(shard.index)
        if snap is not None:
            measurement = snap["measurement"]
            state = snap["state"]
            registry = snap["registry"]
    resumed = measurement is not None
    if not resumed:
        registry = MetricsRegistry()
        built = worldcache.lease(
            worldcache.cache_key(builder, world_kwargs),
            lambda: _world_builders()[builder](shard.seed, **world_kwargs),
            seed=shard.seed,
        )
        world = getattr(built, "world", built)
        world.network.attach_metrics(registry)
        if fault_plan is not None:
            from repro.faults import FaultInjector, FaultPlan

            world.network.attach_faults(
                FaultInjector(FaultPlan.from_payload(fault_plan), seed=shard.seed)
            )
        population = make_population(
            world, probes=shard.count, seed=shard.seed, probe_id_base=shard.start,
            predict=predict,
        )
        spec = MeasurementSpec(qtype=RdataType[qtype_name], **spec_kwargs)
        measurement = Measurement(
            spec=spec, vantage_points=population.vantage_points(), seed=shard.seed
        )

    checkpoint_cb = None
    if store is not None and every > 0:
        crash_after = config.get("crash_after")
        crash_hard = bool(config.get("crash_hard"))

        def checkpoint_cb(run_state):
            store.save_world_snapshot(
                shard.index,
                {
                    "measurement": measurement,
                    "state": run_state,
                    "registry": registry,
                },
            )
            if crash_after is not None and not resumed and run_state.position >= crash_after:
                if crash_hard:
                    import os

                    os._exit(2)
                raise RuntimeError(
                    f"injected crash after {run_state.position} queries (test hook)"
                )

    # The snapshot outlives this return: the executor's save of the payload
    # discards it, so a result lost before then resumes, not restarts.
    results = measurement.run(
        resume=state, checkpoint_every=every, checkpoint=checkpoint_cb
    )
    return encode_shard_payload(
        results=results,
        queries=len(results),
        metrics=registry.snapshot().to_payload(),
    )


# ------------------------------------------------------------- grid cells


def cell_shard(
    shard: Shard, *, campaign: str, cells: list[dict[str, Any]]
) -> dict[str, Any]:
    """Run one cell of a grid campaign (one shard per cell).

    ``campaign`` names a :data:`repro.core.campaign.CAMPAIGNS` entry
    (names, not callables, cross the process boundary); its cell runner
    receives ``cells[shard.index]`` and a fresh metrics registry.  A
    cell builds its own world from its own parameters — seed and fault
    schedule included — so the shard seed plays no part and the
    campaign is byte-identical for any worker count.
    """
    from repro.core.campaign import CAMPAIGNS
    from repro.metrics.registry import MetricsRegistry

    spec = CAMPAIGNS[campaign]
    registry = MetricsRegistry()
    result = spec.load("run_cell")(**cells[shard.index], metrics=registry)
    return encode_shard_payload(
        results=result,
        queries=spec.queries_of(result),
        metrics=registry.snapshot().to_payload(),
    )


# ------------------------------------------------------------- crawl


def crawl_shard(
    shard: Shard,
    *,
    scale: float,
    seed: int,
    lists: Optional[list[str]],
    timeout: float = 1.0,
) -> dict[str, Any]:
    """Crawl one contiguous slice of the generated list universe.

    The universe — identical in every shard — is leased from the
    per-process :mod:`repro.runner.worldcache` (built once per worker
    from ``(scale, seed, lists)``, reset between shards) and the shard
    crawls ``domains[start:stop]``.  Returns a codec envelope so the
    executor's progress telemetry can count simulated queries and the
    merged campaign carries an exact metrics snapshot.
    """
    from repro.crawler.crawl import Crawler
    from repro.metrics.registry import MetricsRegistry
    from repro.runner import worldcache

    def build():
        from repro.crawler.toplists import build_crawl_universe

        return build_crawl_universe(scale=scale, seed=seed, lists=lists)

    registry = MetricsRegistry()
    universe = worldcache.lease(
        worldcache.cache_key(
            "crawl_universe", {"scale": scale, "seed": seed, "lists": lists}
        ),
        build,
        seed=seed,
    )
    universe.network.attach_metrics(registry)
    crawler = Crawler(universe, timeout=timeout)
    result = crawler.crawl(universe.domains[shard.start : shard.stop])
    return encode_shard_payload(
        results=result,
        queries=crawler.queries_sent,
        metrics=registry.snapshot().to_payload(),
    )
