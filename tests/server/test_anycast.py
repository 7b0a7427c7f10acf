"""Tests for repro.server.anycast."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Region, Topology
from repro.net.transport import Network
from repro.server.anycast import AnycastCluster


@pytest.fixture
def rig():
    topology = Topology(seed=0)
    latency = LatencyModel(seed=0)
    zone = Zone("test.co.", default_ttl=60)
    zone.add_soa("ns1.test.co.")
    zone.add("test.co.", RdataType.NS, NS("ns1.test.co."))
    zone.add("test.co.", RdataType.A, A("192.0.2.1"))
    sites = [
        topology.endpoint_in_region(region, f"site-{region.name}")
        for region in (Region.EU, Region.NA, Region.AS, Region.SA)
    ]
    cluster = AnycastCluster("198.51.100.53", sites, latency, [zone], log_queries=True)
    return topology, latency, cluster


class TestCatchment:
    def test_nearest_site_selected(self, rig):
        topology, latency, cluster = rig
        client = topology.endpoint_in_region(Region.SA, "cli")
        site = cluster.endpoint_for(client, latency)
        assert site.region is Region.SA

    def test_catchment_stable(self, rig):
        topology, latency, cluster = rig
        client = topology.endpoint_in_region(Region.AS)
        first = cluster.endpoint_for(client, latency)
        assert all(
            cluster.endpoint_for(client, latency) is first for _ in range(5)
        )

    def test_empty_sites_rejected(self, rig):
        _, latency, _ = rig
        with pytest.raises(ValueError):
            AnycastCluster("198.51.100.1", [], latency)


class TestServing:
    def test_answers_with_aa(self, rig):
        topology, _, cluster = rig
        client = topology.endpoint_in_region(Region.EU)
        query = Message.make_query("test.co.", RdataType.A)
        response = cluster.handle_query(query, client, 0.0)
        assert response.flags.aa and response.answer

    def test_refuses_foreign_zone(self, rig):
        topology, _, cluster = rig
        client = topology.endpoint_in_region(Region.EU)
        query = Message.make_query("other.org.", RdataType.A)
        assert cluster.handle_query(query, client, 0.0).rcode == Rcode.REFUSED

    def test_log_records_site(self, rig):
        topology, latency, cluster = rig
        client = topology.endpoint_in_region(Region.NA)
        query = Message.make_query("test.co.", RdataType.A)
        cluster.handle_query(query, client, 0.0)
        (entry,) = list(cluster.query_log)
        assert entry.server == str(cluster.endpoint_for(client, latency))

    def test_registered_cluster_reduces_latency(self, rig):
        """End-to-end: anycast beats a far unicast site for remote clients."""
        topology, latency, cluster = rig
        network = Network(latency=latency, seed=0)
        network.register(cluster, cluster.service_address)
        client = topology.endpoint_in_region(Region.SA)
        query = Message.make_query("test.co.", RdataType.A)
        samples = [
            network.exchange(client, cluster.service_address, query, 0.0)[1]
            for _ in range(10)
        ]
        # The SA client lands on the SA site: intra-region RTTs, far below
        # the ~190 ms SA→EU unicast path even with jitter.
        assert sum(samples) / len(samples) < 0.150
