"""Tests for the long-lived TCP session layer (repro.net.transport)."""

import pytest

from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.registry import MetricsRegistry
from repro.net.topology import Region, Topology
from repro.net.transport import Network, NetworkTimeout, SessionBroken


class EchoServer:
    """Minimal Server implementation recording arrivals."""

    def __init__(self, endpoint):
        self._endpoint = endpoint
        #: Unicast: every frame reaches this one site.
        self.site = endpoint
        self.seen: list[tuple[str, float]] = []

    @property
    def endpoint(self):
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


def counted(network):
    """The fabric's ``net.tcp.*`` counts, read from a registry it collects into."""
    registry = MetricsRegistry()
    network.attach_metrics(registry)
    return lambda name: registry.snapshot().value(f"net.tcp.{name}") or 0


class TestSessionLifecycle:
    def test_connect_then_reuse_for_many_exchanges(self, rig):
        network, server, client = rig
        count = counted(network)
        session = network.open_session(client, server.endpoint.address)
        assert not session.alive
        rtt = session.connect(0.0)
        assert rtt > 0
        assert session.alive
        for k in range(5):
            response, elapsed = session.exchange(query(), float(k + 1))
            assert response.flags.qr
            assert elapsed > 0
        assert count("exchanges") == 5
        assert count("opens") == 1
        assert len(server.seen) == 5

    def test_exchange_before_connect_raises(self, rig):
        network, server, client = rig
        session = network.open_session(client, server.endpoint.address)
        with pytest.raises(SessionBroken):
            session.exchange(query(), 0.0)

    def test_keepalive_skips_the_server(self, rig):
        """Keepalives are transport frames: no handle_query, no tally."""
        network, server, client = rig
        count = counted(network)
        session = network.open_session(client, server.endpoint.address)
        session.connect(0.0)
        rtt = session.keepalive(10.0)
        assert rtt > 0
        assert count("keepalives") == 1
        assert server.seen == []

    def test_close_is_orderly(self, rig):
        network, server, client = rig
        session = network.open_session(client, server.endpoint.address)
        session.connect(0.0)
        session.close(5.0)
        assert not session.alive
        with pytest.raises(SessionBroken):
            session.exchange(query(), 6.0)

    def test_unknown_address_cannot_connect(self, rig):
        network, _, client = rig
        session = network.open_session(client, "203.0.113.99")
        with pytest.raises(NetworkTimeout):
            session.connect(0.0)


class TestSessionFaults:
    @staticmethod
    def _attach(network, spec):
        plan = FaultPlan(faults=(spec,), name="t", seed=1)
        network.attach_faults(FaultInjector(plan, seed=1))

    def test_blackhole_breaks_mid_session(self, rig):
        network, server, client = rig
        session = network.open_session(client, server.endpoint.address)
        session.connect(0.0)
        session.exchange(query(), 1.0)
        self._attach(
            network,
            FaultSpec(
                kind="blackhole", start=10.0, duration=100.0,
                target=server.endpoint.address,
            ),
        )
        with pytest.raises(SessionBroken):
            session.exchange(query(), 50.0)
        assert not session.alive
        # After the window lifts the session stays dead until reconnect.
        with pytest.raises(SessionBroken):
            session.exchange(query(), 200.0)
        session.connect(200.0)
        response, _ = session.exchange(query(), 201.0)
        assert response.flags.qr

    def test_keepalive_detects_server_outage(self, rig):
        network, server, client = rig
        self._attach(
            network,
            FaultSpec(
                kind="server_outage", start=10.0, duration=100.0,
                target=server.endpoint.address,
            ),
        )
        session = network.open_session(client, server.endpoint.address)
        session.connect(0.0)
        session.keepalive(5.0)
        with pytest.raises(SessionBroken):
            session.keepalive(50.0)
        assert not session.alive

    def test_delay_stretches_rtt_without_breaking(self, rig):
        network, server, client = rig
        session = network.open_session(client, server.endpoint.address)
        session.connect(0.0)
        _, clean = session.exchange(query(), 1.0)
        self._attach(
            network,
            FaultSpec(
                kind="delay", start=10.0, duration=100.0,
                target=server.endpoint.address, delay_ms=500.0,
            ),
        )
        _, slowed = session.exchange(query(), 50.0)
        assert session.alive
        # The fault adds 500 ms one-way on top of the (jittered) base RTT.
        assert slowed >= 0.5
        assert slowed > clean

    def test_loss_storm_fault_can_break_session(self, rig):
        """A ``loss`` fault window's unlucky draws doom framed
        transmissions like datagrams."""
        network, server, client = rig
        self._attach(
            network,
            FaultSpec(
                kind="loss", start=0.0, duration=10_000.0,
                target=server.endpoint.address, rate=0.9,
            ),
        )
        session = network.open_session(client, server.endpoint.address)
        broke = False
        t = 0.0
        for k in range(40):
            t = float(k + 1)
            try:
                if not session.alive:
                    session.connect(t)
                session.exchange(query(), t)
            except (NetworkTimeout, SessionBroken):
                broke = True
        assert broke

    def test_connect_refused_during_outage(self, rig):
        network, server, client = rig
        self._attach(
            network,
            FaultSpec(
                kind="server_outage", start=0.0, duration=100.0,
                target=server.endpoint.address,
            ),
        )
        session = network.open_session(client, server.endpoint.address)
        with pytest.raises(NetworkTimeout):
            session.connect(50.0)
        assert not session.alive
        session.connect(150.0)
        assert session.alive


class TestSessionDeterminism:
    def _run(self, seed):
        topology = Topology(seed=seed)
        network = Network(seed=seed)
        registry = MetricsRegistry()
        network.attach_metrics(registry)
        server = EchoServer(topology.endpoint_in_region(Region.EU, "srv"))
        network.register(server)
        client = topology.endpoint_in_region(Region.EU, "cli")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="server_outage", start=30.0, duration=30.0,
                    target=server.endpoint.address,
                ),
            ),
            name="det",
            seed=7,
        )
        network.attach_faults(FaultInjector(plan, seed=seed))
        session = network.open_session(client, server.endpoint.address)
        events = []
        t = 0.0
        connected = False
        for k in range(30):
            t = k * 5.0
            try:
                if not session.alive:
                    session.connect(t)
                    connected = True
                    events.append(("connect", t))
                _, elapsed = session.exchange(query(), t)
                events.append(("ok", round(elapsed, 9)))
            except (NetworkTimeout, SessionBroken) as exc:
                events.append((type(exc).__name__, t))
        return events, registry.snapshot().to_json()

    def test_reconnect_sequence_reproducible(self):
        first_events, first_metrics = self._run(3)
        second_events, second_metrics = self._run(3)
        assert first_events == second_events
        assert first_metrics == second_metrics
        # The fault window must actually have produced breaks.
        assert any(kind == "SessionBroken" for kind, _ in first_events)
