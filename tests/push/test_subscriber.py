"""Tests for the resolver-side PushClient (repro.push.subscriber)."""

import pytest

from repro.core.worlds import build_push_world
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.registry import MetricsRegistry
from repro.net.topology import Endpoint, Region
from repro.net.transport import Network
from repro.push import MAX_SUBSCRIPTIONS, PushClient, attach_publisher, derive_client_seed
from repro.push.subscriber import _Channel
from repro.resolver.cache import Cache
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

WWW = Name("www.pushed.example.")


def make_rig(ttl=300, publisher=True):
    testbed = build_push_world(ttl=ttl)
    pub = attach_publisher(testbed.server, testbed.world.network) if publisher else None
    endpoint = testbed.world.topology.endpoint_in_region(Region.EU, "sub")
    cache = Cache()
    client = PushClient(endpoint, testbed.world.network, cache)
    return testbed, pub, client, cache


def cached_address(cache, now):
    entry = cache.get(WWW, RdataType.A, now)
    return None if entry is None else str(entry.rrset.rdatas[0])


def counted(testbed):
    """The fabric's lazily declared counts, read from a registry it collects into."""
    registry = MetricsRegistry()
    testbed.world.network.attach_metrics(registry)
    return lambda name: registry.snapshot().value(name) or 0


class TestSeed:
    def test_is_a_pure_function_of_the_address(self):
        assert derive_client_seed("10.0.0.1") == derive_client_seed("10.0.0.1")
        assert derive_client_seed("10.0.0.1") != derive_client_seed("10.0.0.2")


class TestNoteAnswer:
    def test_subscribes_and_reconciles(self):
        testbed, pub, client, cache = make_rig()
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        assert client.subscription_count() == 1
        assert client.alive_session_count() == 1
        assert pub.subscriber_count() == 1
        # The SUBSCRIBE response's RRset landed in the cache.
        assert cached_address(cache, 1.0) == "203.0.113.10"

    def test_noop_without_a_publisher(self):
        testbed, _, client, cache = make_rig(publisher=False)
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        assert client.session_count() == 0
        assert cached_address(cache, 1.0) is None

    def test_noop_for_unknown_server(self):
        _, _, client, _ = make_rig()
        client.note_answer(WWW, RdataType.A, "203.0.113.250", 0.0)
        assert client.session_count() == 0

    def test_respects_the_subscription_bound(self):
        testbed, pub, client, _ = make_rig()
        count = counted(testbed)
        assert MAX_SUBSCRIPTIONS == 1024
        for index in range(MAX_SUBSCRIPTIONS + 1):
            client.note_answer(
                Name(f"n{index}.pushed.example."), RdataType.A,
                testbed.target_address, float(index),
            )
        assert client.subscription_count() == MAX_SUBSCRIPTIONS
        # The client held the last one back: the server never saw it.
        assert count("push.subscribes") == MAX_SUBSCRIPTIONS
        assert count("push.refused_subscriptions") == 0

    def test_restart_drops_sessions(self):
        testbed, _, client, _ = make_rig()
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        client.restart()
        assert client.session_count() == 0
        assert client.subscription_count() == 0


class TestPump:
    def test_applies_a_delivered_notify(self):
        testbed, pub, client, cache = make_rig()
        count = counted(testbed)
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        testbed.apply_change(0)
        pub.publish(WWW, RdataType.A, 100.0)
        assert client.pump(100.0) == 0  # frame still in flight
        assert client.pump(110.0) == 1
        assert cached_address(cache, 110.0) == testbed.content_address(0)
        assert count("push.applied") == 1

    def test_keepalive_rides_the_idle_session(self):
        testbed, _, client, _ = make_rig()
        count = counted(testbed)
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        client.pump(10.0)
        assert count("net.tcp.keepalives") == 0
        client.pump(30.0)
        assert count("net.tcp.keepalives") == 1
        client.pump(31.0)  # interval restarts from the last probe
        assert count("net.tcp.keepalives") == 1


class TestOutageRecovery:
    def outage_rig(self):
        testbed, pub, client, cache = make_rig()
        plan = FaultPlan(
            faults=(FaultSpec(kind="server_outage", start=100.0,
                              duration=100.0, target=testbed.target_address),),
            name="t", seed=1,
        )
        testbed.world.network.attach_faults(FaultInjector(plan, seed=1))
        return testbed, pub, client, cache

    def test_break_reconnect_resubscribe(self):
        testbed, pub, client, cache = self.outage_rig()
        count = counted(testbed)
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        testbed.apply_change(0)
        pub.publish(WWW, RdataType.A, 110.0)  # doomed: resets the session
        assert client.pump(120.0) == 0  # poll discovers the break
        assert client.alive_session_count() == 0
        channel = client._channels[testbed.target_address]
        assert channel.retry_at > 120.0
        # Retries during the window keep failing and keep backing off.
        client.pump(channel.retry_at)
        assert client.alive_session_count() == 0
        # After the window lifts, the next due retry reconnects and the
        # re-SUBSCRIBE reconciles the renumbered record into the cache.
        client.pump(250.0)
        assert client.alive_session_count() == 1
        assert count("push.reconnects") == 1
        assert client.subscription_count() == 1
        assert cached_address(cache, 250.0) == testbed.content_address(0)

    def test_keepalive_discovers_a_quiet_break(self):
        testbed, _, client, _ = self.outage_rig()
        client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
        # No NOTIFY traffic: the keepalive due at t=30k lands inside the
        # outage window and breaks the session client-side.
        client.pump(30.0)
        assert client.alive_session_count() == 1
        client.pump(110.0)
        assert client.alive_session_count() == 0

    def test_reconnect_sequence_is_reproducible(self):
        def run():
            testbed, pub, client, cache = self.outage_rig()
            registry = MetricsRegistry()
            testbed.world.network.attach_metrics(registry)
            client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
            events = []
            for step in range(30):
                now = float(step * 10)
                if step == 11:  # t=110, inside the outage
                    testbed.apply_change(0)
                    pub.publish(WWW, RdataType.A, now)
                events.append((client.pump(now), client.alive_session_count()))
            return events, registry.snapshot().to_json()

        first_events, first_metrics = run()
        second_events, second_metrics = run()
        assert first_events == second_events
        assert first_metrics == second_metrics
        assert any(alive == 0 for _, alive in first_events)

    def test_reconnect_waits_double_then_plateau(self):
        # Recorded from the ladder as it stood on the fabric's retry
        # policy class; every float and RNG draw must stay the same.
        recorded = [
            1.0076005920482012, 2.109511745679718, 3.7882263086081562,
            8.756410208176181, 14.578356574756953, 30.172979892539725,
            62.28388093794167, 66.53208951793485, 64.1123009435506,
        ]
        network = Network(seed=0)
        endpoint = Endpoint("192.0.2.53", Region.EU, 64500)
        client = PushClient(endpoint, network, Cache())
        channel = _Channel("192.0.2.1", network.open_session(endpoint, "192.0.2.1"))
        waits = []
        for _ in range(9):
            client._schedule_retry(channel, 0.0)
            waits.append(channel.retry_at)
        assert waits == recorded
        assert channel.attempt == 9
        # From rung 6 on every wait is 64 s within the 10 % jitter.
        assert all(57.6 <= wait <= 70.4 for wait in waits[6:])
        assert waits[5] < 57.6


class TestResolverIntegration:
    def test_resolution_subscribes_and_pump_applies(self):
        testbed = build_push_world(ttl=86400)
        pub = attach_publisher(testbed.server, testbed.world.network)
        world = testbed.world
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU, "res"),
            network=world.network,
            root_hints=world.hints,
            policy=ResolverPolicy.pushing(),
        )
        out = resolver.resolve(WWW, RdataType.A, now=0.0)
        assert str(out.answers[0].rdatas[0]) == "203.0.113.10"
        assert pub.subscriber_count() == 1
        # Renumber mid-TTL: polling would stay stale for a day; the
        # pushed update lands on the next pump and the resolver answers
        # fresh from cache without another upstream query.
        testbed.apply_change(0)
        pub.publish(WWW, RdataType.A, 600.0)
        sent_before = resolver.queries_sent
        out = resolver.resolve(WWW, RdataType.A, now=650.0)
        assert out.cache_hit
        assert str(out.answers[0].rdatas[0]) == testbed.content_address(0)
        assert resolver.queries_sent == sent_before

    def test_a_pushed_re_add_replaces_a_cached_nodata(self):
        """The record is removed and the removal pushed (the next resolution
        caches NODATA for the SOA's hour), then added back and pushed: the
        pushed data takes the key's one entry and is served from cache at
        once, not after the NODATA expires."""
        testbed = build_push_world(ttl=86400)
        pub = attach_publisher(testbed.server, testbed.world.network)
        world = testbed.world
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU, "res"),
            network=world.network,
            root_hints=world.hints,
            policy=ResolverPolicy.pushing(),
        )
        assert resolver.resolve(WWW, RdataType.A, now=0.0).answers
        testbed.zone.remove(WWW, RdataType.A)
        pub.publish(WWW, RdataType.A, 600.0)
        nodata = resolver.resolve(WWW, RdataType.A, now=650.0)
        assert not nodata.answers and not nodata.cache_hit
        negative = resolver.cache.get_negative(WWW, RdataType.A, 650.0)
        assert negative is not None and negative.expires_at > 2000.0
        testbed.apply_change(0)
        pub.publish(WWW, RdataType.A, 700.0)
        sent_before = resolver.queries_sent
        for now in (750.0, 2000.0):
            out = resolver.resolve(WWW, RdataType.A, now=now)
            assert out.cache_hit and out.answers, f"NODATA served at {now}"
            assert [str(rdata) for rdata in out.answers[0].rdatas] == ["203.0.113.11"]
        assert resolver.queries_sent == sent_before
