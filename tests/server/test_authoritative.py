"""Tests for repro.server.authoritative."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.zone import Zone
from repro.net.topology import Region, Topology
from repro.server.authoritative import AuthoritativeServer


@pytest.fixture
def topology():
    return Topology(seed=0)


def make_zone(origin, default_ttl=3600):
    zone = Zone(origin, default_ttl=default_ttl)
    zone.add_soa(f"ns1.{origin}")
    zone.add(origin, RdataType.NS, NS(f"ns1.{origin}"))
    zone.add(f"ns1.{origin}", RdataType.A, A("192.0.2.53"))
    return zone


class TestZoneSelection:
    def test_deepest_zone_wins(self, topology):
        parent = make_zone("example.com.")
        child = make_zone("sub.example.com.")
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU), [parent, child]
        )
        assert server.best_zone_for(Name("x.sub.example.com.")) is child
        assert server.best_zone_for(Name("www.example.com.")) is parent

    def test_unrelated_name_no_zone(self, topology):
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU), [make_zone("example.com.")]
        )
        assert server.best_zone_for(Name("other.org.")) is None

    def test_add_remove_zone(self, topology):
        server = AuthoritativeServer(topology.endpoint_in_region(Region.EU))
        zone = make_zone("example.com.")
        server.add_zone(zone)
        assert server.zone("example.com.") is zone
        server.remove_zone("example.com.")
        assert server.zone("example.com.") is None


class TestHandling:
    def test_refuses_unknown_zone(self, topology):
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU), [make_zone("example.com.")]
        )
        client = topology.endpoint_in_region(Region.EU)
        query = Message.make_query("other.org.", RdataType.A)
        assert server.handle_query(query, client, 0.0).rcode == Rcode.REFUSED

    def test_answers_from_zone(self, topology):
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU), [make_zone("example.com.")]
        )
        client = topology.endpoint_in_region(Region.EU)
        query = Message.make_query("ns1.example.com.", RdataType.A)
        response = server.handle_query(query, client, 0.0)
        assert response.flags.aa and response.answer

    def test_formerr_on_missing_question(self, topology):
        server = AuthoritativeServer(topology.endpoint_in_region(Region.EU))
        client = topology.endpoint_in_region(Region.EU)
        assert server.handle_query(Message(), client, 0.0).rcode == Rcode.FORMERR

    def test_queries_logged(self, topology):
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU),
            [make_zone("example.com.")],
            log_queries=True,
        )
        client = topology.endpoint_in_region(Region.EU)
        query = Message.make_query("ns1.example.com.", RdataType.A)
        server.handle_query(query, client, 42.0)
        assert server.query_log is not None
        (entry,) = list(server.query_log)
        assert entry.timestamp == 42.0
        assert entry.client_address == client.address
        assert entry.qname == Name("ns1.example.com.")

    def test_logging_disabled(self, topology):
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU),
            [make_zone("example.com.")],
            log_queries=False,
        )
        client = topology.endpoint_in_region(Region.EU)
        server.handle_query(Message.make_query("example.com.", RdataType.NS), client, 0.0)
        assert server.query_log is None

    def test_logging_is_off_by_default_and_every_query_counted(self, topology):
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU), [make_zone("example.com.")]
        )
        client = topology.endpoint_in_region(Region.EU)
        for _ in range(2):
            server.handle_query(Message.make_query("example.com.", RdataType.NS), client, 0.0)
        assert server.query_log is None
        assert server.queries_received == 2

    def test_endpoint_for_is_static(self, topology):
        from repro.net.latency import LatencyModel

        server = AuthoritativeServer(topology.endpoint_in_region(Region.EU))
        client = topology.endpoint_in_region(Region.AS)
        assert server.endpoint_for(client, LatencyModel()) is server.endpoint
