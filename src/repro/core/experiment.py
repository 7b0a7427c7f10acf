"""Shared experiment plumbing: Atlas populations on a world."""

from __future__ import annotations

from typing import Optional

from repro.atlas.population import AtlasConfig, AtlasPopulation
from repro.core.worlds import World


def make_population(
    world: World,
    probes: int = 300,
    seed: Optional[int] = None,
    config: Optional[AtlasConfig] = None,
    probe_id_base: int = 0,
    predict: bool = False,
) -> AtlasPopulation:
    """Attach an Atlas-like probe population to a world.

    RFC 7706 resolvers in the population mirror the world's root zone.
    Pass ``seed`` explicitly from scenarios (falling back to
    ``world.seed`` is kept for ad-hoc use); sharded campaigns pass
    ``probe_id_base`` so each shard's probe ids are globally unique.
    ``predict`` arms every generated resolver's ``predict`` policy
    (:mod:`repro.predict`).
    """
    cfg = config or AtlasConfig(
        probes=probes,
        seed=world.seed if seed is None else seed,
        probe_id_base=probe_id_base,
        predict=predict,
    )
    return AtlasPopulation(
        config=cfg,
        topology=world.topology,
        network=world.network,
        root_hints=world.hints,
        root_zone=world.root_zone,
    )

