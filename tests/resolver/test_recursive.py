"""Tests for the iterative resolution engine.

These exercise the behaviours the paper measures: centricity (§3),
bailiwick-linked expiry (§4.2/4.3), stickiness and parent-centric address
holds (§4.4), serve-stale, RFC 7706, TTL capping, and failure handling.
"""

import pytest

from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import A, CNAME, RdataType
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

from tests.conftest import MiniWorld, build_mini_world


def resolver_for(world, policy=None, root_zone=None):
    from repro.net.topology import Region

    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
        root_zone=root_zone,
    )


class TestBasicResolution:
    def test_full_walk(self, mini_world):
        r = resolver_for(mini_world)
        out = r.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert str(out.answers[-1].rdatas[0]) == "203.0.113.80"
        assert not out.cache_hit
        assert len(out.servers_contacted) >= 3  # root, tld, child

    def test_latency_accumulates(self, mini_world):
        r = resolver_for(mini_world)
        out = r.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.elapsed > 0.05  # three exchanges across continents

    def test_cache_hit_is_free_and_aged(self, mini_world):
        r = resolver_for(mini_world)
        r.resolve("www.example.tld.", RdataType.A, now=0.0)
        out = r.resolve("www.example.tld.", RdataType.A, now=10.0)
        assert out.cache_hit
        assert out.elapsed == 0.0
        assert out.answers[-1].ttl <= 60 - 9

    def test_answer_expires_and_refetches(self, mini_world):
        r = resolver_for(mini_world)
        r.resolve("www.example.tld.", RdataType.A, now=0.0)
        out = r.resolve("www.example.tld.", RdataType.A, now=120.0)
        assert not out.cache_hit
        # Infrastructure still cached: only the child is re-queried.
        assert len(out.servers_contacted) == 1

    def test_aaaa(self, mini_world):
        r = resolver_for(mini_world)
        out = r.resolve("www.example.tld.", RdataType.AAAA, now=0.0)
        assert str(out.answers[-1].rdatas[0]) == "2001:db8::80"

    def test_nxdomain_and_negative_cache(self, mini_world):
        r = resolver_for(mini_world)
        out = r.resolve("missing.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NXDOMAIN
        cached = r.resolve("missing.example.tld.", RdataType.A, now=1.0)
        assert cached.rcode == Rcode.NXDOMAIN and cached.cache_hit

    def test_nodata_negative_cached(self, mini_world):
        mini_world.child_zone.add("text.example.tld.", RdataType.A, A("203.0.113.9"))
        r = resolver_for(mini_world)
        out = r.resolve("text.example.tld.", RdataType.AAAA, now=0.0)
        assert out.rcode == Rcode.NOERROR and not out.answers
        again = r.resolve("text.example.tld.", RdataType.AAAA, now=1.0)
        assert again.cache_hit

    def test_queries_counted(self, mini_world):
        r = resolver_for(mini_world)
        r.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert r.queries_sent >= 3
        assert r.client_queries == 1

    def test_needs_root_hints(self, mini_world):
        with pytest.raises(ValueError):
            RecursiveResolver(
                endpoint=mini_world.topology.endpoints[0],
                network=mini_world.network,
                root_hints={},
            )


class TestCnames:
    def test_in_zone_chain(self, mini_world):
        mini_world.child_zone.add(
            "alias.example.tld.", RdataType.CNAME, CNAME("www.example.tld."), ttl=600
        )
        r = resolver_for(mini_world)
        out = r.resolve("alias.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert out.answers[0].rdtype == RdataType.CNAME
        assert str(out.answers[-1].rdatas[0]) == "203.0.113.80"

    def test_cached_chain(self, mini_world):
        mini_world.child_zone.add(
            "alias.example.tld.", RdataType.CNAME, CNAME("www.example.tld."), ttl=600
        )
        r = resolver_for(mini_world)
        r.resolve("alias.example.tld.", RdataType.A, now=0.0)
        out = r.resolve("alias.example.tld.", RdataType.A, now=5.0)
        assert out.cache_hit and len(out.answers) == 2

    def test_cross_zone_chain(self, mini_world):
        mini_world.child_zone.add(
            "ext.example.tld.", RdataType.CNAME, CNAME("www.other.tld."), ttl=600
        )
        other = mini_world.tld_zone
        # Host the target directly in the TLD zone for simplicity.
        other.add("www.other.tld.", RdataType.A, A("198.51.100.7"), ttl=300)
        r = resolver_for(mini_world)
        out = r.resolve("ext.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert str(out.answers[-1].rdatas[0]) == "198.51.100.7"

    def test_cname_query_not_chased(self, mini_world):
        mini_world.child_zone.add(
            "alias.example.tld.", RdataType.CNAME, CNAME("www.example.tld."), ttl=600
        )
        r = resolver_for(mini_world)
        out = r.resolve("alias.example.tld.", RdataType.CNAME, now=0.0)
        assert len(out.answers) == 1
        assert out.answers[0].rdtype == RdataType.CNAME


class TestCentricity:
    def test_child_centric_ns_ttl(self, mini_world):
        r = resolver_for(mini_world, ResolverPolicy.child_centric())
        out = r.resolve("example.tld.", RdataType.NS, now=0.0)
        assert out.answers[-1].ttl == MiniWorld.CHILD_NS_TTL

    def test_parent_centric_ns_ttl(self, mini_world):
        r = resolver_for(mini_world, ResolverPolicy.parent_centric())
        out = r.resolve("example.tld.", RdataType.NS, now=0.0)
        assert out.answers[-1].ttl == MiniWorld.TLD_DELEG_NS_TTL

    def test_child_centric_address_ttl(self, mini_world):
        r = resolver_for(mini_world, ResolverPolicy.child_centric())
        out = r.resolve("ns1.example.tld.", RdataType.A, now=0.0)
        assert out.answers[-1].ttl == MiniWorld.CHILD_A_TTL

    def test_parent_centric_address_from_glue(self, mini_world):
        r = resolver_for(mini_world, ResolverPolicy.parent_centric())
        r.resolve("www.example.tld.", RdataType.A, now=0.0)  # warm the glue
        out = r.resolve("ns1.example.tld.", RdataType.A, now=10.0)
        assert out.cache_hit
        assert out.answers[-1].ttl > MiniWorld.CHILD_A_TTL

    def test_parent_centric_never_asks_child_for_ns(self, logged_world):
        r = resolver_for(logged_world, ResolverPolicy.parent_centric())
        r.resolve("example.tld.", RdataType.NS, now=0.0)
        log = logged_world.child_server.query_log
        assert not any(e.qtype == RdataType.NS for e in log)

    def test_capping_policy(self, mini_world):
        # Cap below the child NS TTL: observed TTL equals the cap.
        r = resolver_for(mini_world, ResolverPolicy.capping(100))
        out = r.resolve("example.tld.", RdataType.NS, now=0.0)
        assert out.answers[-1].ttl == 100


class TestRfc7706:
    def test_no_root_queries(self, logged_world):
        r = resolver_for(
            logged_world, ResolverPolicy.local_root(), root_zone=logged_world.root_zone
        )
        out = r.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert len(logged_world.root_server.query_log) == 0

    def test_tld_ns_answered_locally_with_parent_ttl(self, logged_world):
        r = resolver_for(
            logged_world, ResolverPolicy.local_root(), root_zone=logged_world.root_zone
        )
        out = r.resolve("tld.", RdataType.NS, now=0.0)
        assert out.answers[-1].ttl == MiniWorld.PARENT_NS_TTL
        assert len(logged_world.root_server.query_log) == 0


class TestFailures:
    def test_all_servers_down_servfail(self):
        world = build_mini_world()
        world.network.down.add(world.child_server.endpoint.address)
        r = resolver_for(world)
        out = r.resolve("www.example.tld.", RdataType.A, now=0.0)
        assert out.rcode == Rcode.SERVFAIL
        assert out.elapsed > 0  # burned timeouts

    def test_serve_stale(self):
        world = build_mini_world()
        policy = ResolverPolicy.child_centric().with_(serve_stale=True)
        r = resolver_for(world, policy)
        r.resolve("www.example.tld.", RdataType.A, now=0.0)
        world.network.down.add(world.child_server.endpoint.address)
        # Well past every TTL: the answer (and infrastructure) is stale.
        out = r.resolve("www.example.tld.", RdataType.A, now=90000.0)
        assert out.rcode == Rcode.NOERROR
        assert out.served_stale
        assert str(out.answers[-1].rdatas[0]) == "203.0.113.80"

    def test_no_stale_without_policy(self):
        world = build_mini_world()
        r = resolver_for(world)
        r.resolve("www.example.tld.", RdataType.A, now=0.0)
        world.network.down.add(world.child_server.endpoint.address)
        out = r.resolve("www.example.tld.", RdataType.A, now=90000.0)
        assert out.rcode == Rcode.SERVFAIL

    def test_loss_recovery_with_retries(self):
        world = build_mini_world(loss_rate=0.2)
        r = resolver_for(world)
        successes = sum(
            r.resolve(f"www.example.tld.", RdataType.A, now=float(i * 200)).rcode
            == Rcode.NOERROR
            for i in range(20)
        )
        assert successes >= 18


class TestStickiness:
    def test_sticky_keeps_expired_infrastructure(self, logged_world):
        r = resolver_for(logged_world, ResolverPolicy.sticky_resolver())
        r.resolve("www.example.tld.", RdataType.A, now=0.0)
        queries_before = len(logged_world.tld_server.query_log)
        # Far past the TLD delegation TTL: a sticky resolver still must not
        # walk back up to the TLD.
        out = r.resolve("www.example.tld.", RdataType.A, now=50000.0)
        assert out.rcode == Rcode.NOERROR
        assert len(logged_world.tld_server.query_log) == queries_before
