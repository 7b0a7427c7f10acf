"""End-to-end integration and failure-injection tests.

These exercise whole subsystems together: full resolution chains through
multiple delegations, outage scenarios (the paper's §4.4 / §6.1 arguments),
loss sweeps, and the interplay of population + measurement + analysis.
"""

import pytest

from repro.dns.message import Rcode
from repro.dns.rdtypes import A, NS, RdataType
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

from tests.conftest import build_mini_world


def make_resolver(world, policy=None, region=Region.EU):
    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(region),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
    )


class TestDeepChains:
    def test_three_level_delegation(self):
        """root -> tld -> example -> deep.example, each with its own cut."""
        world = build_mini_world()
        deep_server = world.topology.endpoint_in_region(Region.EU, "ns.deep")
        from repro.dns.zone import Zone
        from repro.server.authoritative import AuthoritativeServer

        deep = Zone("deep.example.tld.", default_ttl=120)
        deep.add_soa("ns.deep.example.tld.")
        deep.add("deep.example.tld.", RdataType.NS, NS("ns.deep.example.tld."), ttl=120)
        server = AuthoritativeServer(deep_server, [deep])
        world.network.register(server)
        deep.add("ns.deep.example.tld.", RdataType.A, A(deep_server.address), ttl=120)
        deep.add("host.deep.example.tld.", RdataType.A, A("203.0.113.99"), ttl=60)
        world.child_zone.add(
            "deep.example.tld.", RdataType.NS, NS("ns.deep.example.tld."), ttl=300
        )
        world.child_zone.add(
            "ns.deep.example.tld.", RdataType.A, A(deep_server.address), ttl=300
        )

        resolver = make_resolver(world)
        out = resolver.resolve("host.deep.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert str(out.answers[-1].rdatas[0]) == "203.0.113.99"
        assert len(out.servers_contacted) >= 4

    def test_out_of_bailiwick_cross_resolution(self):
        """A zone served by a name under a *different* TLD resolves via a
        sub-resolution through that other branch."""
        world = build_mini_world()
        from repro.dns.zone import Zone
        from repro.server.authoritative import AuthoritativeServer

        # otherzone.tld served by ns.hosting.tld (a different 2LD).
        hosting = Zone("hosting.tld.", default_ttl=3600)
        hosting.add_soa("ns.hosting.tld.")
        hosting.add("hosting.tld.", RdataType.NS, NS("ns.hosting.tld."), ttl=3600)
        host_endpoint = world.topology.endpoint_in_region(Region.NA, "ns.hosting")
        host_server = AuthoritativeServer(host_endpoint, [hosting])
        world.network.register(host_server)
        hosting.add("ns.hosting.tld.", RdataType.A, A(host_endpoint.address), ttl=3600)
        world.tld_zone.add("hosting.tld.", RdataType.NS, NS("ns.hosting.tld."), ttl=7200)
        world.tld_zone.add("ns.hosting.tld.", RdataType.A, A(host_endpoint.address), ttl=7200)

        other = Zone("otherzone.tld.", default_ttl=600)
        other.add_soa("ns.hosting.tld.")
        other.add("otherzone.tld.", RdataType.NS, NS("ns.hosting.tld."), ttl=600)
        other.add("www.otherzone.tld.", RdataType.A, A("198.51.100.44"), ttl=300)
        host_server.add_zone(other)
        world.tld_zone.add("otherzone.tld.", RdataType.NS, NS("ns.hosting.tld."), ttl=7200)

        resolver = make_resolver(world)
        out = resolver.resolve("www.otherzone.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert str(out.answers[-1].rdatas[0]) == "198.51.100.44"


class TestOutages:
    def test_root_down_after_warmup_still_resolves(self):
        """With TLD infrastructure cached, losing the root is invisible —
        the resilience argument for long infrastructure TTLs (§6.1)."""
        world = build_mini_world()
        resolver = make_resolver(world)
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        world.network.down.add(world.root_server.endpoint.address)
        out = resolver.resolve("www.example.tld.", RdataType.A, now=120.0)
        assert out.rcode == Rcode.NOERROR

    def test_root_down_cold_cache_fails(self):
        world = build_mini_world()
        world.network.down.add(world.root_server.endpoint.address)
        resolver = make_resolver(world)
        out = resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.SERVFAIL

    def test_tld_down_with_cached_child_ns(self):
        world = build_mini_world()
        resolver = make_resolver(world)
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        world.network.down.add(world.tld_server.endpoint.address)
        # Child NS/A are cached; answer TTL (60) expired but child zone is
        # reachable directly.
        out = resolver.resolve("www.example.tld.", RdataType.A, now=100.0)
        assert out.rcode == Rcode.NOERROR

    def test_outage_latency_reflects_timeouts(self):
        world = build_mini_world()
        world.network.down.add(world.child_server.endpoint.address)
        resolver = make_resolver(world)
        out = resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.SERVFAIL
        assert out.elapsed >= 2.0  # at least one burned timeout

    def test_recovery_after_outage(self):
        world = build_mini_world()
        resolver = make_resolver(world)
        world.network.down.add(world.child_server.endpoint.address)
        assert resolver.resolve("www.example.tld.", RdataType.A, now=0.0).rcode == Rcode.SERVFAIL
        world.network.down.discard(world.child_server.endpoint.address)
        out = resolver.resolve("www.example.tld.", RdataType.A, now=10.0)
        assert out.rcode == Rcode.NOERROR


class TestLossSweep:
    @pytest.mark.parametrize("loss_rate", [0.0, 0.1, 0.3])
    def test_success_degrades_gracefully(self, loss_rate):
        world = build_mini_world(loss_rate=loss_rate)
        resolver = make_resolver(world)
        outcomes = [
            resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 200)).rcode
            for i in range(25)
        ]
        success = sum(1 for rcode in outcomes if rcode == Rcode.NOERROR) / len(outcomes)
        # Retries absorb substantial loss; even 30% loss mostly succeeds.
        assert success >= (1.0 if loss_rate == 0.0 else 0.7)

    def test_loss_inflates_tail_latency(self):
        clean = build_mini_world(loss_rate=0.0)
        lossy = build_mini_world(loss_rate=0.25)
        clean_resolver = make_resolver(clean)
        lossy_resolver = make_resolver(lossy)
        clean_latencies = []
        lossy_latencies = []
        for i in range(30):
            clean_latencies.append(
                clean_resolver.resolve("www.example.tld.", RdataType.A, float(i * 200)).elapsed
            )
            lossy_latencies.append(
                lossy_resolver.resolve("www.example.tld.", RdataType.A, float(i * 200)).elapsed
            )
        assert max(lossy_latencies) > max(clean_latencies)


class TestPopulationPipeline:
    def test_measurement_to_analysis_pipeline(self):
        """Population -> measurement -> result set -> centricity analysis,
        all in one pass (the §3.2 pipeline end to end)."""
        from repro.analysis.centricity import classify_active_ttls
        from repro.atlas.measurement import Measurement, MeasurementSpec
        from repro.atlas.population import AtlasConfig, AtlasPopulation

        world = build_mini_world()
        population = AtlasPopulation(
            AtlasConfig(probes=60, seed=5),
            world.topology,
            world.network,
            world.hints,
            world.root_zone,
        )
        spec = MeasurementSpec(
            qname="example.tld.", qtype=RdataType.NS, interval=600, duration=1800
        )
        results = Measurement(
            spec=spec, vantage_points=population.vantage_points(), seed=5
        ).run()
        valid = results.valid()
        assert len(valid) > 0
        breakdown = classify_active_ttls(
            valid.ttls(), parent_ttl=7200, child_ttl=300
        )
        assert breakdown.child_fraction > 0.5
        summary = results.summary()
        assert summary["vps"] >= summary["probes"]

    def test_forwarded_vps_still_child_centric(self):
        from repro.atlas.population import AtlasConfig, AtlasPopulation

        world = build_mini_world()
        population = AtlasPopulation(
            AtlasConfig(probes=40, seed=2, forwarder_share=1.0, public_share=0.0),
            world.topology,
            world.network,
            world.hints,
            world.root_zone,
        )
        forwarded = [
            vp for vp in population.vantage_points()
            if population.resolver_label.get(vp.resolver_address, "").startswith("fwd+")
        ]
        assert forwarded
        answer = forwarded[0].stub.query("example.tld.", RdataType.NS, now=0.0)
        assert answer.rcode == Rcode.NOERROR
        assert answer.ttl() <= 300  # child TTL through two cache layers


class TestQueryVolumeAccounting:
    def test_cache_cuts_authoritative_queries(self):
        """The §6.2 load result at micro scale: repeated client queries at
        a warm resolver generate no authoritative traffic."""
        world = build_mini_world(log_queries=True)
        resolver = make_resolver(world)
        resolver.resolve("example.tld.", RdataType.NS, now=0.0)
        baseline = len(world.child_server.query_log)
        for i in range(10):
            resolver.resolve("example.tld.", RdataType.NS, now=1.0 + i)
        assert len(world.child_server.query_log) == baseline

    def test_short_ttl_generates_periodic_refetch(self):
        world = build_mini_world(log_queries=True)
        resolver = make_resolver(world)
        for i in range(5):
            resolver.resolve("example.tld.", RdataType.NS, now=float(i * 600))
        # Child NS TTL is 300 s; every 600 s round misses.
        ns_queries = [
            e for e in world.child_server.query_log if e.qtype == RdataType.NS
        ]
        assert len(ns_queries) >= 5
