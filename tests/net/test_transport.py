"""Tests for repro.net.transport (delivery, loss, timeout, anycast hook)."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import RdataType
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.net.latency import LatencyModel
from repro.net.topology import Region, Topology
from repro.net.transport import Network, NetworkTimeout


class EchoServer:
    """Minimal Server implementation recording arrivals.

    It has no fixed :attr:`site`, so the fabric asks :meth:`endpoint_for`
    on every delivery (what :class:`TestAnycastHook` overrides)."""

    site = None

    def __init__(self, endpoint):
        self._endpoint = endpoint
        self.seen: list[tuple[str, float]] = []

    @property
    def endpoint(self):
        return self._endpoint

    def endpoint_for(self, client, latency):
        return self._endpoint

    def handle_query(self, query, client, now):
        self.seen.append((client.address, now))
        return query.make_response(authoritative=True)


@pytest.fixture
def rig():
    topology = Topology(seed=0)
    network = Network(seed=0)
    server = EchoServer(topology.endpoint_in_region(Region.EU, "srv"))
    network.register(server)
    client = topology.endpoint_in_region(Region.EU, "cli")
    return network, server, client


def query():
    return Message.make_query("example.com", RdataType.A)


class TestExchange:
    def test_response_and_elapsed(self, rig):
        network, server, client = rig
        response, elapsed = network.exchange(client, server.endpoint.address, query(), 0.0)
        assert response.flags.qr
        assert elapsed > 0

    def test_server_sees_midpoint_time(self, rig):
        network, server, client = rig
        _, elapsed = network.exchange(client, server.endpoint.address, query(), 100.0)
        (_, arrival), = server.seen
        assert 100.0 < arrival < 100.0 + elapsed

    def test_unknown_address_times_out(self, rig):
        network, _, client = rig
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, "203.0.113.99", query(), 0.0, timeout=1.5, retries=2)
        assert exc.value.elapsed == pytest.approx(4.5)

    def test_server_at(self, rig):
        network, server, _ = rig
        assert network.server_at(server.endpoint.address) is server
        assert network.server_at("198.18.0.1") is None


def arm_loss(network, rate, seed):
    """Cross every transmission with a ``loss`` fault window."""
    window = FaultSpec(kind="loss", start=0.0, duration=1e9, rate=rate)
    network.attach_faults(FaultInjector(FaultPlan(faults=(window,)), seed=seed))


class TestLoss:
    def test_down_address_always_lost(self, rig):
        network, server, client = rig
        network.down.add(server.endpoint.address)
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, server.endpoint.address, query(), 0.0)
        assert exc.value.elapsed == pytest.approx(6.0)
        assert server.seen == []

    def test_bring_up(self, rig):
        network, server, client = rig
        network.down.add(server.endpoint.address)
        network.down.discard(server.endpoint.address)
        response, _ = network.exchange(client, server.endpoint.address, query(), 0.0)
        assert response.flags.qr

    def test_retry_succeeds_after_losses(self, rig):
        network, server, client = rig
        arm_loss(network, 0.5, seed=4)
        successes = 0
        for _ in range(50):
            try:
                network.exchange(client, server.endpoint.address, query(), 0.0, retries=5)
                successes += 1
            except NetworkTimeout:
                pass
        assert successes > 45  # (1/2)^6 residual failure odds
        assert network.tally.retries > 0

    def test_loss_burns_timeout_into_elapsed(self, rig):
        network, server, client = rig
        arm_loss(network, 1.0, seed=2)
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, server.endpoint.address, query(), 0.0,
                             timeout=2.0, retries=1)
        assert exc.value.elapsed == pytest.approx(4.0)


class TestAnycastHook:
    def test_exchange_uses_endpoint_for(self):
        topology = Topology(seed=0)
        network = Network(seed=0)
        near = topology.endpoint_in_region(Region.SA, "site-sa")
        far = topology.endpoint_in_region(Region.OC, "site-oc")

        class TwoFaced(EchoServer):
            def endpoint_for(self, client, latency):
                return latency.nearest(client, [near, far])

        server = TwoFaced(far)
        network.register(server, "198.51.100.1")
        client = topology.endpoint_in_region(Region.SA, "cli")
        _, elapsed_anycast = network.exchange(client, "198.51.100.1", query(), 0.0)
        # Against the far unicast endpoint the RTT must be much larger.
        network.register(EchoServer(far), far.address)
        _, elapsed_far = network.exchange(client, far.address, query(), 0.0)
        assert elapsed_anycast < elapsed_far
