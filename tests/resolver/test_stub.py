"""Tests for repro.resolver.stub."""

import random

import pytest

from repro.dns.message import Rcode
from repro.dns.rdtypes import RdataType
from repro.net.latency import LatencyModel
from repro.net.topology import Region
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import StubResolver
from tests.metrics.test_count_once_structure import calls


def make_stub(world, same_as=True):
    autonomous_system = world.topology.create_as(Region.EU)
    client = world.topology.create_endpoint(autonomous_system, name="client")
    if same_as:
        resolver_endpoint = world.topology.create_endpoint(autonomous_system, name="res")
    else:
        resolver_endpoint = world.topology.endpoint_in_region(Region.NA, name="res")
    resolver = RecursiveResolver(
        endpoint=resolver_endpoint, network=world.network, root_hints=world.hints
    )
    return StubResolver(client, resolver, world.network.latency, seed=1)


class TestQuery:
    def test_answer_and_rtt(self, mini_world):
        stub = make_stub(mini_world)
        answer = stub.query("www.example.tld.", RdataType.A, now=0.0)
        assert answer.rcode == Rcode.NOERROR
        assert answer.ttl() == 60
        assert answer.rtt > 0
        assert answer.resolver_address == stub.resolver.address

    def test_cache_hit_is_last_mile_only(self, mini_world):
        stub = make_stub(mini_world)
        first = stub.query("www.example.tld.", RdataType.A, now=0.0)
        second = stub.query("www.example.tld.", RdataType.A, now=5.0)
        assert second.cache_hit
        assert second.rtt < first.rtt
        assert second.rtt < 0.05  # a few ms to the on-network resolver

    def test_public_resolver_leg_is_slower(self, mini_world):
        local = make_stub(mini_world, same_as=True)
        public = make_stub(mini_world, same_as=False)
        local.query("www.example.tld.", RdataType.A, now=0.0)
        public.query("www.example.tld.", RdataType.A, now=0.0)
        local_hit = local.query("www.example.tld.", RdataType.A, now=5.0)
        public_hit = public.query("www.example.tld.", RdataType.A, now=5.0)
        assert public_hit.rtt > local_hit.rtt

    def test_ttl_none_on_failure(self, mini_world):
        mini_world.network.down.add(mini_world.child_server.endpoint.address)
        stub = make_stub(mini_world)
        answer = stub.query("www.example.tld.", RdataType.A, now=0.0)
        assert answer.rcode == Rcode.SERVFAIL
        assert answer.ttl() is None


class TestClientLeg:
    """The client leg is one ``lognormvariate(0, σ)`` draw from the stub's
    own stream: the last mile to a resolver in the client's AS, else the
    network path to the resolver."""

    @pytest.mark.parametrize("same_as", [True, False], ids=["same-as", "other-as"])
    def test_one_lognormal_draw_from_the_stubs_own_stream(self, mini_world, same_as):
        first = make_stub(mini_world, same_as)
        resolver, latency = first.resolver, mini_world.network.latency
        sigma = latency._jitter_sigma
        for seed in range(50):
            stub = StubResolver(first.endpoint, resolver, latency, seed)
            assert (stub.endpoint.asn == resolver.endpoint.asn) == same_as
            base = (
                latency.last_mile_ms
                if same_as
                else latency.base_rtt_ms(stub.endpoint, resolver.endpoint)
            )
            reference = random.Random(seed ^ 0x57AB)
            for _ in range(20):
                expected = base * reference.lognormvariate(0.0, sigma) / 1000.0
                assert stub.client_leg_rtt() == expected
            assert stub._rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("same_as", [True, False], ids=["same-as", "other-as"])
    def test_a_client_leg_enters_one_python_frame(self, mini_world, same_as):
        stub = make_stub(mini_world, same_as)
        stub.client_leg_rtt()  # memoizes the path's base RTT
        seen = calls(stub.client_leg_rtt)
        sampler = LatencyModel.last_mile_rtt if same_as else LatencyModel.rtt
        assert {code: n for code, n in seen.items() if not isinstance(code, str)} == {
            sampler.__code__: 1
        }
