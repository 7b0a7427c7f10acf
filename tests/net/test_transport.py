"""Tests for repro.net.transport (delivery, loss, timeout, anycast hook)."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import RdataType
from repro.net.latency import LatencyModel
from repro.net.topology import Region, Topology
from repro.net.transport import LossModel, Network, NetworkTimeout


class EchoServer:
    """Minimal Server implementation recording arrivals."""

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


class TestLoss:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            LossModel(rate=1.0)

    def test_zero_rate_never_loses(self):
        loss = LossModel(rate=0.0)
        assert not any(loss.lost("10.0.0.1") for _ in range(100))

    def test_rate_statistics(self):
        loss = LossModel(rate=0.3, seed=1)
        losses = sum(loss.lost("10.0.0.1") for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35

    def test_down_address_always_lost(self):
        loss = LossModel(rate=0.0)
        loss.take_down("10.0.0.9")
        assert loss.lost("10.0.0.9")
        assert loss.is_down("10.0.0.9")

    def test_bring_up(self):
        loss = LossModel(rate=0.0)
        loss.take_down("10.0.0.9")
        loss.bring_up("10.0.0.9")
        assert not loss.lost("10.0.0.9")

    def test_retry_succeeds_after_losses(self):
        topology = Topology(seed=0)
        network = Network(loss=LossModel(rate=0.5, seed=4), seed=0)
        server = EchoServer(topology.endpoint_in_region(Region.EU, "srv"))
        network.register(server)
        client = topology.endpoint_in_region(Region.EU, "cli")
        successes = 0
        for _ in range(50):
            try:
                network.exchange(client, server.endpoint.address, query(), 0.0, retries=5)
                successes += 1
            except NetworkTimeout:
                pass
        assert successes > 45  # (1/2)^6 residual failure odds

    def test_loss_burns_timeout_into_elapsed(self):
        topology = Topology(seed=0)
        network = Network(loss=LossModel(rate=0.999999, seed=2), seed=0)
        server = EchoServer(topology.endpoint_in_region(Region.EU, "srv"))
        network.register(server)
        client = topology.endpoint_in_region(Region.EU, "cli")
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
