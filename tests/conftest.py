"""Shared fixtures: a small simulated DNS hierarchy for resolver tests.

The hierarchy mirrors the paper's recurring configuration:

- root zone (2-day delegation TTLs) delegating ``tld.``;
- ``tld.`` (parent) delegating ``example.tld.`` with a *different* TTL than
  the child uses, plus in-bailiwick glue;
- ``example.tld.`` (child) with its own NS/A TTLs and content records.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.dns.name import Name
from repro.dns.rdtypes import AAAA, A, NS, RdataType, SOA
from repro.dns.record import RRset
from repro.dns.zone import Zone
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.net.topology import Region, Topology
from repro.net.transport import Network
from repro.server.authoritative import AuthoritativeServer


def soa_rrset(name="example.com", ttl=3600, minimum=300):
    """An SOA RRset; a negative answer cached under it lives
    min(``ttl``, ``minimum``) seconds (RFC 2308 §5)."""
    rdata = SOA(Name(f"ns.{name}"), Name("h.e"), 1, 7200, 3600, 86400, minimum)
    return RRset(Name(name), RdataType.SOA, ttl, [rdata])


@dataclass
class MiniWorld:
    topology: Topology
    network: Network
    hints: dict[Name, str]
    root_zone: Zone
    tld_zone: Zone
    child_zone: Zone
    root_server: AuthoritativeServer
    tld_server: AuthoritativeServer
    child_server: AuthoritativeServer

    #: The deliberately different TTLs at each level.
    PARENT_NS_TTL = 172800
    TLD_DELEG_NS_TTL = 7200
    TLD_GLUE_A_TTL = 7200
    CHILD_NS_TTL = 300
    CHILD_A_TTL = 120

    def make_resolver(self, policy=None, root_zone_copy=False):
        from repro.resolver.recursive import RecursiveResolver

        endpoint = self.topology.endpoint_in_region(Region.EU)
        return RecursiveResolver(
            endpoint=endpoint,
            network=self.network,
            root_hints=self.hints,
            policy=policy,
            root_zone=self.root_zone if root_zone_copy or policy is None else self.root_zone,
        )


def build_mini_world(
    seed: int = 0, loss_rate: float = 0.0, log_queries: bool = False
) -> MiniWorld:
    """The hierarchy above; a ``loss_rate`` arms a ``loss`` fault window
    over every transmission, seeded by ``seed``.  ``log_queries`` keeps a
    per-query log on each server, for tests that read one."""
    topology = Topology(seed=seed)
    network = Network(seed=seed)
    if loss_rate:
        window = FaultSpec(kind="loss", start=0.0, duration=1e9, rate=loss_rate)
        network.attach_faults(FaultInjector(FaultPlan(faults=(window,)), seed=seed))

    root_zone = Zone("", default_ttl=172800)
    root_zone.add_soa("a.rootsrv.net.")
    root_zone.add("", RdataType.NS, NS("a.rootsrv.net."), ttl=518400)

    tld_zone = Zone("tld.", default_ttl=7200)
    tld_zone.add_soa("a.nic.tld.")
    tld_zone.add("tld.", RdataType.NS, NS("a.nic.tld."), ttl=7200)

    child_zone = Zone("example.tld.", default_ttl=MiniWorld.CHILD_NS_TTL)
    child_zone.add_soa("ns1.example.tld.")
    child_zone.add(
        "example.tld.", RdataType.NS, NS("ns1.example.tld."),
        ttl=MiniWorld.CHILD_NS_TTL,
    )

    root_server = AuthoritativeServer(
        topology.endpoint_in_region(Region.NA, "a.rootsrv.net"), [root_zone], log_queries
    )
    tld_server = AuthoritativeServer(
        topology.endpoint_in_region(Region.SA, "a.nic.tld"), [tld_zone], log_queries
    )
    child_server = AuthoritativeServer(
        topology.endpoint_in_region(Region.EU, "ns1.example.tld"), [child_zone], log_queries
    )
    for server in (root_server, tld_server, child_server):
        network.register(server)

    root_zone.add("a.rootsrv.net.", RdataType.A, A(root_server.endpoint.address),
                  ttl=518400)
    root_zone.add("tld.", RdataType.NS, NS("a.nic.tld."), ttl=MiniWorld.PARENT_NS_TTL)
    root_zone.add("a.nic.tld.", RdataType.A, A(tld_server.endpoint.address),
                  ttl=MiniWorld.PARENT_NS_TTL)

    tld_zone.add("a.nic.tld.", RdataType.A, A(tld_server.endpoint.address), ttl=43200)
    tld_zone.add("example.tld.", RdataType.NS, NS("ns1.example.tld."),
                 ttl=MiniWorld.TLD_DELEG_NS_TTL)
    tld_zone.add("ns1.example.tld.", RdataType.A, A(child_server.endpoint.address),
                 ttl=MiniWorld.TLD_GLUE_A_TTL)

    child_zone.add("ns1.example.tld.", RdataType.A, A(child_server.endpoint.address),
                   ttl=MiniWorld.CHILD_A_TTL)
    child_zone.add("www.example.tld.", RdataType.A, A("203.0.113.80"), ttl=60)
    child_zone.add("www.example.tld.", RdataType.AAAA, AAAA("2001:db8::80"), ttl=60)

    return MiniWorld(
        topology=topology,
        network=network,
        hints={Name("a.rootsrv.net."): root_server.endpoint.address},
        root_zone=root_zone,
        tld_zone=tld_zone,
        child_zone=child_zone,
        root_server=root_server,
        tld_server=tld_server,
        child_server=child_server,
    )


@pytest.fixture
def mini_world() -> MiniWorld:
    return build_mini_world()


@pytest.fixture
def logged_world() -> MiniWorld:
    """:func:`mini_world` with every server keeping its query log."""
    return build_mini_world(log_queries=True)
