"""Tests for the transport's flat retry ladder."""

import pytest

from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region, Topology
from repro.net.transport import Network, NetworkTimeout


def query():
    return Message.make_query("example.com", RdataType.A)


@pytest.fixture
def dead_rig():
    topology = Topology(seed=0)
    network = Network(seed=0)
    client = topology.endpoint_in_region(Region.EU, "cli")
    return network, client


class TestBudget:
    def test_explicit_timeout_still_wins_without_policy(self, dead_rig):
        # Every lost attempt burns one flat ``timeout`` (the resolver
        # depends on elapsed == (retries + 1) * timeout).
        network, client = dead_rig
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, "203.0.113.99", query(), 0.0,
                             timeout=1.5, retries=2)
        assert exc.value.elapsed == pytest.approx(4.5)
        assert network.tally.retries == 2 and network.tally.lost_transmissions == 3
