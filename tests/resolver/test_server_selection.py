"""Tests for server selection: rotation, lame delegations, failover."""

from repro.dns.message import Rcode
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.zone import Zone
from repro.net.topology import Region
from repro.resolver.recursive import RecursiveResolver
from repro.server.authoritative import AuthoritativeServer

from tests.conftest import build_mini_world


def add_second_child_server(world):
    """Give example.tld a second authoritative server."""
    endpoint = world.topology.endpoint_in_region(Region.NA, "ns2.example.tld")
    server = AuthoritativeServer(endpoint, [world.child_zone], world.child_server.log_queries)
    world.network.register(server)
    world.child_zone.add(
        "example.tld.", RdataType.NS, NS("ns2.example.tld."), ttl=300
    )
    world.child_zone.add(
        "ns2.example.tld.", RdataType.A, A(endpoint.address), ttl=120
    )
    world.tld_zone.add("example.tld.", RdataType.NS, NS("ns2.example.tld."), ttl=7200)
    world.tld_zone.add("ns2.example.tld.", RdataType.A, A(endpoint.address), ttl=7200)
    return server


class TestRotation:
    def test_rotating_resolver_uses_both_servers(self):
        """Paper §3.4 ([37]): resolvers rotate between authoritatives."""
        world = build_mini_world(log_queries=True)
        second = add_second_child_server(world)
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
        )
        # The answer TTL is 60 s; query every 120 s so every round misses.
        for i in range(8):
            resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 120))
        first_log = world.child_server.query_log
        second_log = second.query_log
        assert len(first_log) > 0 and len(second_log) > 0


class TestLameDelegation:
    def test_lame_server_skipped(self):
        """One of two NS targets does not serve the zone; resolution must
        succeed via the healthy one."""
        world = build_mini_world()
        # Register a lame server: answers REFUSED for example.tld.
        lame_endpoint = world.topology.endpoint_in_region(Region.NA, "lame.example.tld")
        lame = AuthoritativeServer(lame_endpoint, [])  # serves nothing
        world.network.register(lame)
        world.child_zone.add(
            "example.tld.", RdataType.NS, NS("lame.example.tld."), ttl=300
        )
        world.child_zone.add(
            "lame.example.tld.", RdataType.A, A(lame_endpoint.address), ttl=120
        )
        world.tld_zone.add("example.tld.", RdataType.NS, NS("lame.example.tld."), ttl=7200)
        world.tld_zone.add("lame.example.tld.", RdataType.A, A(lame_endpoint.address), ttl=7200)

        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
        )
        # Run several rounds: whichever order servers are tried, answers
        # must always come back.
        for i in range(6):
            out = resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 120))
            assert out.rcode == Rcode.NOERROR

    def test_all_lame_servfail(self):
        world = build_mini_world()
        world.child_server.remove_zone("example.tld.")
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
        )
        out = resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.SERVFAIL


class TestFailover:
    def test_failover_to_second_server(self):
        world = build_mini_world(log_queries=True)
        second = add_second_child_server(world)
        world.network.down.add(world.child_server.endpoint.address)
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
        )
        out = resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert len(second.query_log) > 0

    def test_failover_latency_includes_timeouts(self):
        world = build_mini_world()
        add_second_child_server(world)
        world.network.down.add(world.child_server.endpoint.address)
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
        )
        latencies = []
        for i in range(6):
            out = resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 120))
            if out.rcode == Rcode.NOERROR:
                latencies.append(out.elapsed)
        # At least one resolution burned a timeout on the dead server.
        assert latencies and max(latencies) >= 2.0
