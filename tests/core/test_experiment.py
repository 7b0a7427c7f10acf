"""Tests for repro.core.experiment plumbing."""

from repro.core.experiment import make_population
from repro.core.worlds import build_base_world


class TestMakePopulation:
    def test_attaches_to_world(self):
        world = build_base_world(seed=3)
        population = make_population(world, probes=30)
        assert len(population.probes) == 30
        # Recursive resolvers live on the world's fabric and use its hints
        # (forwarders delegate to one that does).
        from repro.resolver.recursive import RecursiveResolver

        recursives = [
            r for r in population.unique_resolvers()
            if isinstance(r, RecursiveResolver)
        ]
        assert recursives
        assert all(r.root_hints == world.hints for r in recursives)

    def test_seed_defaults_to_world_seed(self):
        world_a = build_base_world(seed=9)
        world_b = build_base_world(seed=9)
        pop_a = make_population(world_a, probes=20)
        pop_b = make_population(world_b, probes=20)
        assert [p.endpoint.address for p in pop_a.probes] == [
            p.endpoint.address for p in pop_b.probes
        ]

