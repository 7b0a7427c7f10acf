"""Tests for repro.resolver.forwarder (multi-layer infrastructure, §4.4)."""

import pytest

from repro.dns.message import Rcode
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.recursive import RecursiveResolver


def make_recursive(world, region=Region.EU):
    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(region),
        network=world.network,
        root_hints=world.hints,
    )


def make_forwarder(world, upstreams):
    return ForwardingResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU, "fwd"),
        upstreams=upstreams,
        latency=world.network.latency,
    )


class TestForwarding:
    def test_resolves_through_upstream(self, mini_world):
        forwarder = make_forwarder(mini_world, [make_recursive(mini_world)])
        out = forwarder.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert str(out.answers[-1].rdatas[0]) == "203.0.113.80"
        assert out.servers_contacted[0] == forwarder.upstreams[0].address

    def test_needs_upstreams(self, mini_world):
        with pytest.raises(ValueError):
            make_forwarder(mini_world, [])

    def test_local_cache_hit(self, mini_world):
        forwarder = make_forwarder(mini_world, [make_recursive(mini_world)])
        forwarder.resolve("www.example.tld.", RdataType.A, now=0.0)
        hit = forwarder.resolve("www.example.tld.", RdataType.A, now=5.0)
        assert hit.cache_hit
        assert forwarder.forwarded_queries == 1

    def test_forwarder_ttl_decays_through_layers(self, mini_world):
        upstream = make_recursive(mini_world)
        forwarder = make_forwarder(mini_world, [upstream])
        forwarder.resolve("www.example.tld.", RdataType.A, now=0.0)
        # Warm upstream + forwarder; 20 s later the forwarder's own cache
        # serves the remaining TTL.
        hit = forwarder.resolve("www.example.tld.", RdataType.A, now=20.0)
        assert hit.answers[-1].ttl <= 40

    def test_negative_answers_are_forwarded_again(self, mini_world):
        """The upstream's result carries no SOA, and a negative answer
        without one is not cached (RFC 2308 §5)."""
        forwarder = make_forwarder(mini_world, [make_recursive(mini_world)])
        first = forwarder.resolve("missing.example.tld.", RdataType.A, now=0.0)
        assert first.rcode == Rcode.NXDOMAIN
        second = forwarder.resolve("missing.example.tld.", RdataType.A, now=1.0)
        assert second.rcode == Rcode.NXDOMAIN and not second.cache_hit
        assert forwarder.forwarded_queries == 2 and len(forwarder.cache) == 0

    def test_round_robin_fragments_caches(self, mini_world):
        """§4.4: different upstream backends hold different remaining TTLs,
        so a forwarder alternating between them sees a TTL mix."""
        up_a = make_recursive(mini_world)
        up_b = make_recursive(mini_world)
        forwarder = make_forwarder(mini_world, [up_a, up_b])
        # Warm backend A at t=0 via the forwarder, then query again at
        # t=30: round-robin sends the second query to cold backend B,
        # whose fresh answer has a *larger* TTL than A's aged copy.
        forwarder.resolve("www.example.tld.", RdataType.AAAA, now=0.0)
        forwarder.cache.clear()  # isolate upstream fragmentation
        second = forwarder.resolve("www.example.tld.", RdataType.AAAA, now=30.0)
        assert second.answers[-1].ttl >= 59  # fresh from backend B, not ~30
        assert up_a.client_queries == 1 and up_b.client_queries == 1

    def test_chained_forwarders(self, mini_world):
        upstream = make_recursive(mini_world)
        middle = make_forwarder(mini_world, [upstream])
        edge = ForwardingResolver(
            endpoint=mini_world.topology.endpoint_in_region(Region.EU, "edge"),
            upstreams=[middle],
            latency=mini_world.network.latency,
        )
        out = edge.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert len(out.servers_contacted) >= 2

    def test_upstream_failure_propagates(self, mini_world):
        mini_world.network.down.add(mini_world.child_server.endpoint.address)
        forwarder = make_forwarder(mini_world, [make_recursive(mini_world)])
        out = forwarder.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.SERVFAIL

    def test_forwarder_cap_applies(self, mini_world):
        forwarder = ForwardingResolver(
            endpoint=mini_world.topology.endpoint_in_region(Region.EU),
            upstreams=[make_recursive(mini_world)],
            latency=mini_world.network.latency,
            max_ttl=30,
        )
        forwarder.resolve("www.example.tld.", RdataType.A, now=0.0)
        hit = forwarder.resolve("www.example.tld.", RdataType.A, now=1.0)
        assert hit.answers[-1].ttl <= 30
