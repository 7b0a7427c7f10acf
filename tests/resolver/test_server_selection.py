"""Tests for server selection: rotation, lame delegations, failover."""

import os
import subprocess
import sys

import pytest

from repro.dns.message import Rcode
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.zone import Zone
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy, ServerSelection
from repro.resolver.recursive import RecursiveResolver
from repro.server.authoritative import AuthoritativeServer

from tests.conftest import build_mini_world


def add_second_child_server(world):
    """Give example.tld a second authoritative server."""
    endpoint = world.topology.endpoint_in_region(Region.NA, "ns2.example.tld")
    server = AuthoritativeServer(endpoint, [world.child_zone])
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
        world = build_mini_world()
        second = add_second_child_server(world)
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
            policy=ResolverPolicy(server_selection=ServerSelection.ROTATE),
        )
        # The answer TTL is 60 s; query every 120 s so every round misses.
        for i in range(8):
            resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 120))
        first_log = world.child_server.query_log
        second_log = second.query_log
        assert len(first_log) > 0 and len(second_log) > 0

    def test_first_selection_pins_one_server(self):
        world = build_mini_world()
        second = add_second_child_server(world)
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
            policy=ResolverPolicy(server_selection=ServerSelection.FIRST),
        )
        for i in range(6):
            resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 120))
        logs = sorted(
            [len(world.child_server.query_log), len(second.query_log)]
        )
        assert logs[0] == 0  # one server never contacted


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
            policy=ResolverPolicy(server_selection=ServerSelection.FIRST),
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
        world = build_mini_world()
        second = add_second_child_server(world)
        world.network.loss.take_down(world.child_server.endpoint.address)
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
        world.network.loss.take_down(world.child_server.endpoint.address)
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
            policy=ResolverPolicy(server_selection=ServerSelection.FIRST),
        )
        latencies = []
        for i in range(6):
            out = resolver.resolve("www.example.tld.", RdataType.A, now=float(i * 120))
            if out.rcode == Rcode.NOERROR:
                latencies.append(out.elapsed)
        # At least one resolution burned a timeout on the dead server.
        assert latencies and max(latencies) >= 2.0


def random_selection_sequence(rounds: int = 8, restart_after: int = 0) -> list[str]:
    """The servers a ``ServerSelection.RANDOM`` resolver answers from, one
    per round, in a world whose child zone has five authoritatives."""
    world = build_mini_world()
    for index in range(2, 6):
        endpoint = world.topology.endpoint_in_region(Region.NA, f"ns{index}.example.tld")
        world.network.register(AuthoritativeServer(endpoint, [world.child_zone]))
        for zone, ns_ttl, a_ttl in ((world.child_zone, 300, 120), (world.tld_zone, 7200, 7200)):
            zone.add("example.tld.", RdataType.NS, NS(f"ns{index}.example.tld."), ttl=ns_ttl)
            zone.add(f"ns{index}.example.tld.", RdataType.A, A(endpoint.address), ttl=a_ttl)
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
        policy=ResolverPolicy(server_selection=ServerSelection.RANDOM, target_fetch=False),
    )
    sequence = []
    for round_index in range(rounds):
        if restart_after and round_index == restart_after:
            resolver.restart()
        # The answer TTL is 60 s; query every 120 s so every round misses.
        out = resolver.resolve("www.example.tld.", RdataType.A, now=float(round_index * 120))
        assert out.rcode == Rcode.NOERROR
        sequence.append(out.servers_contacted[-1])
    return sequence


class TestRandomSelection:
    def test_successive_calls_reshuffle(self):
        """One stream per resolver, advanced by every call: the same five
        servers come back in different orders, so different ones answer."""
        assert len(set(random_selection_sequence())) > 1

    def test_same_address_same_stream(self):
        assert random_selection_sequence() == random_selection_sequence()

    def test_restart_resets_the_stream(self):
        """A restart forgets the stream's position beside the rotation
        cursors: what follows it is what followed construction."""
        rounds = random_selection_sequence(rounds=8, restart_after=4)
        fresh = random_selection_sequence(rounds=4)
        # Rounds 0-3 walk from the root; so do rounds 4-7 after the restart.
        assert rounds[4:] == fresh == rounds[:4]

    def test_sequence_does_not_depend_on_the_hash_seed(self):
        """``hash(str)`` differs between processes; the order must not
        (serial ≡ ``--parallel N`` for any policy that selects RANDOM)."""
        script = (
            "from tests.resolver.test_server_selection import random_selection_sequence;"
            "print(' '.join(random_selection_sequence()))"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root, env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].split() == random_selection_sequence()
