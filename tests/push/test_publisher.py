"""Tests for the authoritative-side publisher (repro.push.publisher)."""

import pytest

from repro.core.worlds import build_push_world
from repro.dns.message import Message, Opcode, Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.registry import MetricsRegistry
from repro.net.topology import Region
from repro.push import attach_publisher
from repro.push.publisher import MAX_SUBSCRIBERS, MAX_SUBSCRIPTIONS_PER_SESSION

WWW = Name("www.pushed.example.")


def subscribe_query(name=WWW, rdtype=RdataType.A):
    query = Message.make_query(name, rdtype, recursion_desired=False)
    query.opcode = Opcode.SUBSCRIBE
    return query


def unsubscribe_query(name=WWW, rdtype=RdataType.A):
    query = subscribe_query(name, rdtype)
    query.opcode = Opcode.UNSUBSCRIBE
    return query


def subscriptions(publisher) -> int:
    """Keys subscribed across every session, read from the session table."""
    return sum(len(state.keys) for state in publisher._subs.values())


@pytest.fixture
def rig():
    testbed = build_push_world(ttl=300)
    publisher = attach_publisher(testbed.server, testbed.world.network)
    client = testbed.world.topology.endpoint_in_region(Region.EU, "cli")
    return testbed, publisher, client


class TestSubscribe:
    def test_response_carries_the_current_rrset(self, rig):
        testbed, publisher, client = rig
        response = testbed.server.handle_query(subscribe_query(), client, 0.0)
        assert response.rcode is Rcode.NOERROR
        rrset = response.answer_rrset()
        assert rrset is not None
        assert str(rrset.rdatas[0]) == "203.0.113.10"
        assert publisher.subscriber_count() == 1
        assert subscriptions(publisher) == 1

    def test_without_publisher_subscribe_is_notimp(self):
        testbed = build_push_world(ttl=300)  # no attach_publisher
        client = testbed.world.topology.endpoint_in_region(Region.EU, "cli")
        response = testbed.server.handle_query(subscribe_query(), client, 0.0)
        assert response.rcode is Rcode.NOTIMP

    def test_resubscribe_is_idempotent(self, rig):
        testbed, publisher, client = rig
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        testbed.server.handle_query(subscribe_query(), client, 1.0)
        assert publisher.subscriber_count() == 1
        assert subscriptions(publisher) == 1

    def test_subscriber_bound_refuses(self, rig):
        testbed, publisher, _ = rig
        topology = testbed.world.topology
        home = topology.create_as(Region.EU)
        codes = [
            testbed.server.handle_query(
                subscribe_query(), topology.create_endpoint(home, name=f"c{index}"), 0.0
            ).rcode
            for index in range(MAX_SUBSCRIBERS + 1)
        ]
        assert MAX_SUBSCRIBERS == 4096
        assert codes == [Rcode.NOERROR] * MAX_SUBSCRIBERS + [Rcode.REFUSED]
        assert publisher.subscriber_count() == MAX_SUBSCRIBERS

    def test_per_session_bound_refuses(self, rig):
        testbed, publisher, client = rig
        codes = [
            testbed.server.handle_query(
                subscribe_query(Name(f"n{index}.pushed.example.")), client, 0.0
            ).rcode
            for index in range(MAX_SUBSCRIPTIONS_PER_SESSION + 1)
        ]
        assert MAX_SUBSCRIPTIONS_PER_SESSION == 1024
        assert codes == [Rcode.NOERROR] * MAX_SUBSCRIPTIONS_PER_SESSION + [Rcode.REFUSED]
        assert subscriptions(publisher) == MAX_SUBSCRIPTIONS_PER_SESSION

    def test_unsubscribe_forgets_the_subscriber(self, rig):
        testbed, publisher, client = rig
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        response = testbed.server.handle_query(
            unsubscribe_query(), client, 1.0)
        assert response.rcode is Rcode.NOERROR
        assert publisher.subscriber_count() == 0
        assert publisher.publish(WWW, RdataType.A, 2.0) == 0


class TestPublish:
    def test_no_subscribers_enqueues_nothing(self, rig):
        testbed, publisher, client = rig
        assert publisher.publish(WWW, RdataType.A, 10.0) == 0

    def test_notify_delivers_after_one_way_delay(self, rig):
        testbed, publisher, client = rig
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        testbed.apply_change(0)
        assert publisher.publish(WWW, RdataType.A, 100.0) == 1
        frames, broken = publisher.poll(client.address, 100.0)
        assert frames == () and broken is None  # still in flight
        frames, broken = publisher.poll(client.address, 110.0)
        assert broken is None
        assert len(frames) == 1
        frame = frames[0]
        assert frame.changed_at == 100.0
        assert 100.0 < frame.deliver_at <= 110.0
        assert str(frame.rrset.rdatas[0]) == testbed.content_address(0)
        # Delivery drains the queue: a second poll is empty.
        assert publisher.poll(client.address, 120.0) == ((), None)

    def test_unknown_address_polls_as_broken(self, rig):
        _, publisher, client = rig
        frames, broken = publisher.poll("203.0.113.250", 5.0)
        assert frames == ()
        assert broken is not None

    def test_changes_coalesce_per_key(self, rig):
        testbed, publisher, client = rig
        registry = MetricsRegistry()
        testbed.world.network.attach_metrics(registry)
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        testbed.apply_change(0)
        publisher.publish(WWW, RdataType.A, 100.0)
        testbed.apply_change(1)
        publisher.publish(WWW, RdataType.A, 101.0)
        frames, _ = publisher.poll(client.address, 200.0)
        assert len(frames) == 1  # the older frame was replaced
        assert str(frames[0].rrset.rdatas[0]) == testbed.content_address(1)
        metrics = registry.snapshot().to_payload()["metrics"]
        assert metrics["push.coalesced"]["value"] == 1
        assert metrics["push.notifications"]["value"] == 2

    def test_removal_publishes_an_invalidation(self, rig):
        testbed, publisher, client = rig
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        testbed.zone.remove(WWW, RdataType.A)
        publisher.publish(WWW, RdataType.A, 100.0)
        frames, _ = publisher.poll(client.address, 200.0)
        assert len(frames) == 1
        assert frames[0].rrset is None


class TestFaultedDelivery:
    def test_doomed_notify_resets_the_session(self, rig):
        testbed, publisher, client = rig
        network = testbed.world.network
        registry = MetricsRegistry()
        network.attach_metrics(registry)
        plan = FaultPlan(
            faults=(FaultSpec(kind="server_outage", start=50.0,
                              duration=100.0, target=testbed.target_address),),
            name="t", seed=1,
        )
        network.attach_faults(FaultInjector(plan, seed=1))
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        testbed.apply_change(0)
        assert publisher.publish(WWW, RdataType.A, 60.0) == 0  # doomed
        frames, broken = publisher.poll(client.address, 70.0)
        assert frames == ()
        assert broken == 60.0
        metrics = registry.snapshot().to_payload()["metrics"]
        assert metrics["push.session_resets"]["value"] == 1
        # Frames published while broken are not queued either.
        testbed.apply_change(1)
        assert publisher.publish(WWW, RdataType.A, 80.0) == 0

    def test_resubscribe_clears_the_break(self, rig):
        testbed, publisher, client = rig
        network = testbed.world.network
        plan = FaultPlan(
            faults=(FaultSpec(kind="server_outage", start=50.0,
                              duration=100.0, target=testbed.target_address),),
            name="t", seed=1,
        )
        network.attach_faults(FaultInjector(plan, seed=1))
        testbed.server.handle_query(subscribe_query(), client, 0.0)
        testbed.apply_change(0)
        publisher.publish(WWW, RdataType.A, 60.0)  # dooms the session
        # After the window, a fresh SUBSCRIBE reconciles and re-arms.
        response = testbed.server.handle_query(subscribe_query(), client, 200.0)
        assert response.rcode is Rcode.NOERROR
        assert str(response.answer_rrset().rdatas[0]) == testbed.content_address(0)
        testbed.apply_change(1)
        assert publisher.publish(WWW, RdataType.A, 210.0) == 1
        frames, broken = publisher.poll(client.address, 220.0)
        assert broken is None
        assert len(frames) == 1
