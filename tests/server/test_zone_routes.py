"""Zone routing is one table per server, shared by unicast and anycast.

A server keeps qname -> deepest enclosing zone for its current set of
origins.  Changing that set (``add_zone``/``remove_zone``) clears the
table; changing a zone's contents does not need to.  The table is bounded,
because qnames reaching the live frontend are chosen by clients.
"""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Region, Topology
from repro.server.anycast import AnycastCluster
from repro.server.authoritative import _ROUTES_MAX, AuthoritativeServer

QNAME = "www.sub.example.com."


def make_zone(origin):
    zone = Zone(origin, default_ttl=3600)
    zone.add_soa(f"ns1.{origin}")
    zone.add(origin, RdataType.NS, NS(f"ns1.{origin}"))
    return zone


def unicast(topology, zones):
    return AuthoritativeServer(topology.endpoint_in_region(Region.EU), zones)


def anycast(topology, zones):
    sites = [topology.endpoint_in_region(region) for region in (Region.EU, Region.AS)]
    return AnycastCluster("198.51.100.53", sites, LatencyModel(), zones)


@pytest.fixture(params=[unicast, anycast], ids=["unicast", "anycast"])
def rig(request):
    topology = Topology(seed=0)
    parent = make_zone("example.com.")
    server = request.param(topology, [parent])
    return server, parent, topology.endpoint_in_region(Region.EU)


def answering_zone(server, client, qname=QNAME):
    """The origin whose SOA or NS the response carries."""
    response = server.handle_query(Message.make_query(qname, RdataType.A), client, 0.0)
    (rrset,) = response.authority or response.answer
    return rrset.name


def test_a_child_added_later_takes_over_and_its_removal_hands_back(rig):
    server, _, client = rig
    assert answering_zone(server, client) == Name("example.com.")
    child = make_zone("sub.example.com.")
    server.add_zone(child)
    assert server.best_zone_for(Name(QNAME)) is child
    assert answering_zone(server, client) == Name("sub.example.com.")
    server.remove_zone("sub.example.com.")
    assert answering_zone(server, client) == Name("example.com.")


def test_an_unrouted_name_is_refused_until_its_zone_arrives(rig):
    server, _, client = rig
    assert server.best_zone_for(Name("www.example.org.")) is None
    org = make_zone("example.org.")
    server.add_zone(org)
    assert server.best_zone_for(Name("www.example.org.")) is org


def test_zone_contents_change_without_a_reroute(rig):
    server, parent, client = rig
    query = Message.make_query(QNAME, RdataType.A)
    assert not server.handle_query(query, client, 0.0).answer
    parent.add(QNAME, RdataType.A, A("192.0.2.7"))
    (rrset,) = server.handle_query(query, client, 1.0).answer
    assert rrset.rdatas == (A("192.0.2.7"),)


def test_distinct_qnames_leave_the_table_at_its_bound(rig):
    server, parent, _ = rig
    for index in range(10_000):
        assert server.best_zone_for(Name(f"h{index}.example.com.")) is parent
    assert 0 < len(server._routes) <= _ROUTES_MAX
