"""Canonical simulated Internets.

Each builder reproduces one of the paper's measurement targets, with the
exact TTL configurations the paper reports (Table 1, Table 2, Figure 5).
A :class:`World` bundles the topology, network fabric, root zone and
running servers, and offers helpers to add delegations with *independent*
parent and child TTLs — the core of everything the paper studies.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Optional

from repro.dns.name import Name, root
from repro.dns.rdtypes import AAAA, A, NS, RdataType
from repro.dns.zone import Zone
from repro.net.topology import Endpoint, Region, Topology, TopologyMark
from repro.net.transport import Network
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver
from repro.server.anycast import AnycastCluster
from repro.server.authoritative import AuthoritativeServer


@dataclass(frozen=True)
class WorldBaseline:
    """A rewind point for :meth:`World.restore_baseline`.

    World *structure* (which servers/zones exist, their addresses) is a
    pure function of the builder arguments and never of the seed — all
    builders place infrastructure with explicit regions, so the topology
    RNG is untouched during construction.  That makes the baseline tiny:
    a topology mark is enough, and everything else resets in place.
    """

    topology_mark: TopologyMark

#: The root zone's delegation TTL — 2 days, as for real TLDs (Table 1).
ROOT_DELEGATION_TTL = 172800


@dataclass
class World:
    """A running simulated Internet."""

    seed: int
    topology: Topology
    network: Network
    root_zone: Zone
    hints: dict[Name, str]
    zones: dict[str, Zone] = field(default_factory=dict)
    servers: dict[str, AuthoritativeServer] = field(default_factory=dict)
    clusters: dict[str, AnycastCluster] = field(default_factory=dict)
    _server_addresses: dict[str, str] = field(default_factory=dict)

    # -- worldcache reuse ---------------------------------------------------
    def capture_baseline(self) -> WorldBaseline:
        """Capture the just-built state for later :meth:`restore_baseline`.

        The campaign worldcache calls this once per (builder, kwargs) and
        then restores between shards — a seeded reset instead of a full
        rebuild.  The contract: campaign code must not mutate zones of a
        cached world (centricity shards never do; scenarios that schedule
        zone events run through their own worlds).
        """
        return WorldBaseline(topology_mark=self.topology.mark())

    def restore_baseline(self, baseline: WorldBaseline, seed: int) -> None:
        """Return to ``baseline`` under ``seed``, as if freshly built.

        Equivalent to ``builder(seed, **same_kwargs)`` because world
        structure is seed-independent: the topology rewinds (dropping
        endpoints the previous shard's population allocated) and reseeds,
        the fabric's RNG streams/metrics/faults reset, and every server
        forgets its query traffic.
        """
        self.seed = seed
        self.topology.reset_to(baseline.topology_mark, seed)
        self.network.reset_runtime(seed)

    def keep_query_logs(self, on: bool = True) -> None:
        """Turn every server's per-query log on (or off), empty: servers only
        count queries unless an experiment reads the log."""
        for server in (*self.servers.values(), *self.clusters.values()):
            server.log_queries = on
            server.reset_runtime_state()

    # -- infrastructure -----------------------------------------------------
    def address_of(self, server_name: str) -> str:
        return self._server_addresses[server_name]

    def add_server(
        self,
        name: str,
        region: Region,
        zones: Optional[list[Zone]] = None,
    ) -> AuthoritativeServer:
        """Create, register and remember an authoritative server."""
        endpoint = self.topology.endpoint_in_region(region, name=name)
        server = AuthoritativeServer(endpoint, zones or [])
        self.network.register(server)
        self.servers[name] = server
        self._server_addresses[name] = endpoint.address
        return server

    def add_anycast(
        self,
        name: str,
        site_regions: list[Region],
        zones: Optional[list[Zone]] = None,
    ) -> AnycastCluster:
        """Create an anycast cluster with one site per listed region entry."""
        sites = [
            self.topology.endpoint_in_region(region, name=f"{name}-site-{index}")
            for index, region in enumerate(site_regions)
        ]
        service_address = sites[0].address
        cluster = AnycastCluster(
            service_address=service_address,
            sites=sites,
            latency=self.network.latency,
            zones=zones or [],
        )
        self.network.register(cluster, service_address)
        self.clusters[name] = cluster
        self._server_addresses[name] = service_address
        return cluster

    def add_root_glue(self, server_name: str) -> None:
        """An A record at the root for ``server_name``, which lies outside
        the TLD it serves, so delegating that TLD adds no glue for it."""
        self.root_zone.add(
            f"{server_name}.", RdataType.A, A(self.address_of(server_name)),
            ttl=ROOT_DELEGATION_TTL,
        )

    def resolver(self, endpoint: Endpoint, policy: ResolverPolicy) -> RecursiveResolver:
        """A recursive resolver at ``endpoint``, on this world's fabric
        and root hints.

        The caller allocates ``endpoint`` itself: address allocation is
        order-dependent, so where in a scenario each endpoint is created
        is part of its recorded bytes.
        """
        return RecursiveResolver(
            endpoint=endpoint, network=self.network, root_hints=self.hints,
            policy=policy,
        )

    # -- zone plumbing ----------------------------------------------------------
    def add_zone(self, zone: Zone) -> Zone:
        self.zones[str(zone.origin)] = zone
        return zone

    def zone(self, origin: str) -> Zone:
        return self.zones[str(Name(origin))]

    def delegate(
        self,
        parent: Zone,
        child_origin: str,
        server_names: list[str],
        parent_ns_ttl: int,
        parent_glue_ttl: Optional[int] = None,
    ) -> None:
        """Add NS (and in-bailiwick glue) for ``child_origin`` to ``parent``.

        Glue A records are added only for servers inside the delegated
        zone, using the servers' registered addresses.  ``parent_glue_ttl``
        defaults to ``parent_ns_ttl`` (as in real TLD zones).
        """
        child = Name(child_origin)
        glue_ttl = parent_glue_ttl if parent_glue_ttl is not None else parent_ns_ttl
        for server_name in server_names:
            parent.add(child, RdataType.NS, NS(Name(server_name)), ttl=parent_ns_ttl)
            if Name(server_name).is_subdomain_of(child):
                parent.add(
                    server_name,
                    RdataType.A,
                    A(self.address_of(server_name.rstrip("."))),
                    ttl=glue_ttl,
                )

    def add_delegated_zone(
        self,
        origin: str,
        servers: list[tuple[str, Region]],
        ns_ttl: int,
        a_ttl: Optional[int] = None,
        parent: Optional[Zone] = None,
        parent_ttl: int = ROOT_DELEGATION_TTL,
    ) -> Zone:
        """A child zone served by ``servers``, delegated from ``parent``.

        The zone's default TTL and apex NS carry ``ns_ttl`` and its SOA
        names the first server.  Each ``(name, region)`` server is placed
        in order; those named inside the zone get an A at ``a_ttl``
        (default ``ns_ttl``).  ``parent`` (default: the root) gets the
        NS and in-bailiwick glue at ``parent_ttl`` — the parent and child
        TTLs are set independently, which is what the paper measures.
        """
        zone = self.add_zone(Zone(origin, default_ttl=ns_ttl))
        zone.add_soa(f"{servers[0][0]}.")
        for name, region in servers:
            server = self.add_server(name, region, [zone])
            zone.add(origin, RdataType.NS, NS(Name(name)), ttl=ns_ttl)
            if Name(name).is_subdomain_of(zone.origin):
                zone.add(
                    f"{name}.", RdataType.A, A(server.endpoint.address),
                    ttl=ns_ttl if a_ttl is None else a_ttl,
                )
        parent = self.root_zone if parent is None else parent
        self.delegate(parent, origin, [f"{name}." for name, _ in servers], parent_ttl)
        return zone


def _root_world(seed: int) -> World:
    """A fresh topology and fabric under ``seed``, with an empty root
    zone; the caller adds the root's SOA and servers."""
    root_zone = Zone(root, default_ttl=ROOT_DELEGATION_TTL)
    world = World(
        seed=seed,
        topology=Topology(seed=seed),
        network=Network(seed=seed),
        root_zone=root_zone,
        hints={},
    )
    world.add_zone(root_zone)
    return world


def build_base_world(seed: int = 0) -> World:
    """Root zone plus two root servers (a/b.root-servers.net)."""
    world = _root_world(seed)
    root_zone = world.root_zone
    root_zone.add_soa("a.root-servers.net.", minimum=86400, ttl=86400)
    for letter, region in (("a", Region.NA), ("b", Region.EU)):
        name = f"{letter}.root-servers.net"
        server = world.add_server(name, region, [root_zone])
        root_zone.add(root, RdataType.NS, NS(Name(name)), ttl=518400)
        world.hints[Name(name)] = server.endpoint.address
    return world


# --------------------------------------------------------------------------- §3.1
def build_cl_world(seed: int = 0) -> World:
    """Chile's .cl as in Table 1: parent 172800 s; child NS 3600 s, A 43200 s."""
    world = build_base_world(seed)
    cl = world.add_delegated_zone("cl.", [("a.nic.cl", Region.SA)], 3600, a_ttl=43200)
    cl.add("a.nic.cl.", RdataType.AAAA, AAAA("2001:db8:cc1e::10"), ttl=43200)
    world.root_zone.add(
        "a.nic.cl.", RdataType.AAAA, AAAA("2001:db8:cc1e::10"), ttl=ROOT_DELEGATION_TTL
    )
    # A second-level domain under .cl for full-resolution walks.
    example = world.add_zone(Zone("example.cl.", default_ttl=600))
    example.add_soa("a.nic.cl.")
    example.add("example.cl.", RdataType.NS, NS(Name("ns.example.cl.")), ttl=600)
    ns_example = world.add_server("ns.example.cl", Region.SA, [example])
    example.add("ns.example.cl.", RdataType.A, A(ns_example.endpoint.address), ttl=600)
    example.add("www.example.cl.", RdataType.A, A("203.0.113.80"), ttl=300)
    cl.add("example.cl.", RdataType.NS, NS(Name("ns.example.cl.")), ttl=3600)
    cl.add("ns.example.cl.", RdataType.A, A(ns_example.endpoint.address), ttl=3600)
    return world


# --------------------------------------------------------------------------- §3.2
@dataclass
class UyWorld:
    """The .uy configuration plus the natural-experiment TTL switch."""

    world: World
    child_ns_ttl: int


def build_uy_world(
    seed: int = 0, child_ns_ttl: int = 300, child_a_ttl: int = 120
) -> UyWorld:
    """Uruguay's .uy: parent NS/glue 172800 s, child NS 300 s, A 120 s."""
    world = build_base_world(seed)
    world.add_delegated_zone(
        "uy.", [("a.nic.uy", Region.SA)], child_ns_ttl, a_ttl=child_a_ttl
    )
    return UyWorld(world=world, child_ns_ttl=child_ns_ttl)


# --------------------------------------------------------------------------- §3.3
def build_googleco_world(seed: int = 0) -> World:
    """google.co: parent (.co) NS TTL 900 s; child NS TTL 345600 s; servers
    ns[1-4].google.com are out of bailiwick (under .com)."""
    world = build_base_world(seed)

    # .com, hosting google.com which hosts the server names.
    com = world.add_delegated_zone(
        "com.", [("a.gtld-servers.net", Region.NA)], ROOT_DELEGATION_TTL
    )
    world.add_root_glue("a.gtld-servers.net")

    googlecom = world.add_zone(Zone("google.com.", default_ttl=345600))
    googlecom.add_soa("ns1.google.com.")
    google_ns_names = [f"ns{i}.google.com." for i in range(1, 5)]
    regions = [Region.NA, Region.EU, Region.AS, Region.NA]
    for ns_name, region in zip(google_ns_names, regions):
        server = world.add_server(ns_name.rstrip("."), region, [googlecom])
        googlecom.add(ns_name, RdataType.A, A(server.endpoint.address), ttl=345600)
        googlecom.add("google.com.", RdataType.NS, NS(Name(ns_name)), ttl=345600)
    world.delegate(com, "google.com.", google_ns_names, 172800)

    # .co TLD.
    co = world.add_zone(Zone("co.", default_ttl=900))
    co.add_soa("ns.cctld.co.")
    co_server = world.add_server("ns.cctld.co", Region.SA, [co])
    co.add("co.", RdataType.NS, NS(Name("ns.cctld.co.")), ttl=172800)
    co.add("ns.cctld.co.", RdataType.A, A(co_server.endpoint.address), ttl=172800)
    world.delegate(world.root_zone, "co.", ["ns.cctld.co."], ROOT_DELEGATION_TTL)

    # google.co: parent NS TTL 900 s in .co, child NS TTL 345600 s, served
    # by the (out-of-bailiwick) google.com servers.
    googleco = world.add_zone(Zone("google.co.", default_ttl=345600))
    googleco.add_soa("ns1.google.com.")
    for ns_name in google_ns_names:
        googleco.add("google.co.", RdataType.NS, NS(Name(ns_name)), ttl=345600)
        world.servers[ns_name.rstrip(".")].add_zone(googleco)
    googleco.add("google.co.", RdataType.A, A("203.0.113.100"), ttl=300)
    world.delegate(co, "google.co.", google_ns_names, 900)
    return world


# ----------------------------------------------------------------------------- §4
@dataclass
class CachetestWorld:
    """The §4 controlled renumbering experiment."""

    world: World
    in_bailiwick: bool
    sub_zone_old: Zone
    old_server: AuthoritativeServer
    new_server: AuthoritativeServer
    old_answer: str
    new_answer: str
    server_host_zone: Optional[Zone] = None  # zurrundedu.com (out-of-bailiwick)

    def renumber(self) -> None:
        """Point the served-zone server name at the new machine (§4.2).

        For in-bailiwick setups this rewrites the glue in cachetest.net and
        the sub zone's own copies; for out-of-bailiwick it rewrites the A
        record inside zurrundedu.com.  The old machine keeps running and
        keeps answering with the old data — exactly the paper's setup.
        """
        new_address = self.new_server.endpoint.address
        if self.in_bailiwick:
            # Only the parent's glue changes; the old VM keeps serving its
            # unmodified zone (the paper's old/new servers intentionally
            # return different data, §4.2).
            parent = self.world.zone("cachetest.net.")
            parent.replace(
                "ns1.sub.cachetest.net.", RdataType.A, A(new_address), ttl=7200
            )
        else:
            # The experimenter updates the zurrundedu.com zone (served by
            # both VMs) and the .com glue — "the .com zone supports dynamic
            # updates and we verify this change is visible in seconds"
            # (§4.3).  Resolvers holding still-valid cached copies of the
            # old glue (OpenDNS-like, 2-day TTL) never notice.
            assert self.server_host_zone is not None
            self.server_host_zone.replace(
                "ns1.zurrundedu.com.", RdataType.A, A(new_address), ttl=7200
            )
            com = self.world.zone("com.")
            com.replace("ns1.zurrundedu.com.", RdataType.A, A(new_address), ttl=172800)

    def take_child_offline(self) -> None:
        """The zurrundedu-offline scenario (§4.4): both sub-zone servers
        stop answering; only parent-centric resolvers still resolve."""
        self.world.network.down.add(self.old_server.endpoint.address)
        self.world.network.down.add(self.new_server.endpoint.address)


def build_cachetest_world(seed: int = 0, in_bailiwick: bool = True) -> CachetestWorld:
    """The cachetest.net hierarchy of Figure 5.

    ``sub.cachetest.net`` is served by one server whose name is either
    inside the subzone (``ns1.sub.cachetest.net``, glue required) or
    outside it (``ns1.zurrundedu.com``).  NS TTL 3600 s, server A TTL
    7200 s, measurement answers (wildcard AAAA) TTL 60 s.
    """
    world = build_base_world(seed)

    # .net with cachetest.net delegated at the default 2-day TTLs.
    net_zone = world.add_delegated_zone(
        "net.", [("a.gtld-servers.net", Region.NA)], ROOT_DELEGATION_TTL
    )

    # cachetest.net, two in-bailiwick servers in EU (Frankfurt EC2 in the paper).
    cachetest = world.add_delegated_zone(
        "cachetest.net.",
        [("ns1.cachetest.net", Region.EU), ("ns2.cachetest.net", Region.EU)],
        3600,
        parent=net_zone,
    )

    old_answer = "2001:db8:0:1::60"
    new_answer = "2001:db8:0:2::60"

    if in_bailiwick:
        server_name = "ns1.sub.cachetest.net."
    else:
        server_name = "ns1.zurrundedu.com."

    def make_sub_zone(answer: str, server_address: str) -> Zone:
        zone = Zone("sub.cachetest.net.", default_ttl=3600)
        zone.add_soa(server_name)
        zone.add("sub.cachetest.net.", RdataType.NS, NS(Name(server_name)), ttl=3600)
        if in_bailiwick:
            zone.add(server_name, RdataType.A, A(server_address), ttl=7200)
        zone.add("*.sub.cachetest.net.", RdataType.AAAA, AAAA(answer), ttl=60)
        return zone

    old_server = world.add_server("sub-old", Region.EU)
    new_server = world.add_server("sub-new", Region.EU)
    sub_old = make_sub_zone(old_answer, old_server.endpoint.address)
    sub_new = make_sub_zone(new_answer, new_server.endpoint.address)
    old_server.add_zone(sub_old)
    new_server.add_zone(sub_new)
    world.add_zone(sub_old)  # the "current" child zone contents

    # Delegate sub.cachetest.net from cachetest.net, initially at the old
    # server's address.
    cachetest.add(
        "sub.cachetest.net.", RdataType.NS, NS(Name(server_name)), ttl=3600
    )
    server_host_zone: Optional[Zone] = None
    if in_bailiwick:
        cachetest.add(
            server_name, RdataType.A, A(old_server.endpoint.address), ttl=7200
        )
    else:
        # zurrundedu.com under .com, with its own (in-bailiwick) name server
        # hosting the A record of ns1.zurrundedu.com.
        com = world.add_delegated_zone(
            "com.", [("a.com-servers.net", Region.NA)], ROOT_DELEGATION_TTL
        )
        world.add_root_glue("a.com-servers.net")

        # zurrundedu.com is served by ns1.zurrundedu.com itself (the very
        # machine being renumbered), so .com publishes 2-day glue for it —
        # the data parent-centric resolvers pin (§4.4).  Both the old and
        # the new VM serve the (single, updated-on-renumber) zone.
        zurr = world.add_zone(Zone("zurrundedu.com.", default_ttl=3600))
        zurr.add_soa(server_name)
        zurr.add("zurrundedu.com.", RdataType.NS, NS(Name(server_name)), ttl=3600)
        zurr.add(server_name, RdataType.A, A(old_server.endpoint.address), ttl=7200)
        old_server.add_zone(zurr)
        new_server.add_zone(zurr)
        com.add("zurrundedu.com.", RdataType.NS, NS(Name(server_name)), ttl=172800)
        com.add(server_name, RdataType.A, A(old_server.endpoint.address), ttl=172800)
        server_host_zone = zurr

    world.keep_query_logs()
    return CachetestWorld(
        world=world,
        in_bailiwick=in_bailiwick,
        sub_zone_old=sub_old,
        old_server=old_server,
        new_server=new_server,
        old_answer=old_answer,
        new_answer=new_answer,
        server_host_zone=server_host_zone,
    )


# --------------------------------------------------------------------------- §3.4
@dataclass
class NlWorld:
    """.nl with four authoritative servers, two of them monitored."""

    world: World
    server_names: list[str]
    monitored: list[str]  # the ns[1,3].dns.nl ENTRADA view

    def monitored_log_groups(self) -> dict[tuple[str, Name], list[float]]:
        """(resolver, qname) groups across the monitored servers' logs."""
        groups: dict[tuple[str, Name], list[float]] = {}
        for name in self.monitored:
            log = self.world.servers[name].query_log
            assert log is not None
            for key, stamps in log.by_group().items():
                groups.setdefault(key, []).extend(stamps)
        for stamps in groups.values():
            stamps.sort()
        return groups


def build_nl_world(seed: int = 0, domain_count: int = 500) -> NlWorld:
    """The Netherlands' .nl: glue 172800 s at the root, child A TTL 3600 s.

    ``domain_count`` synthetic second-level domains are delegated so a
    client workload can drive resolutions (the passive §3.4 study).
    """
    world = build_base_world(seed)
    server_names = ["ns1.dns.nl", "ns2.dns.nl", "ns3.dns.nl", "sns-pb.isc.org"]
    regions = [Region.EU, Region.EU, Region.NA, Region.NA]
    nl = world.add_delegated_zone("nl.", list(zip(server_names, regions)), 3600)

    # sns-pb.isc.org needs the .org path to resolve.
    org = world.add_delegated_zone(
        "org.", [("a0.org-servers.net", Region.NA)], ROOT_DELEGATION_TTL
    )
    world.add_root_glue("a0.org-servers.net")
    isc = world.add_delegated_zone(
        "isc.org.", [("ns.isc.org", Region.NA)], 7200, parent=org, parent_ttl=86400
    )
    isc.add(
        "sns-pb.isc.org.",
        RdataType.A,
        A(world.address_of("sns-pb.isc.org")),
        ttl=7200,
    )

    # Synthetic .nl content domains (shared hosting: a handful of hosters).
    hoster_count = max(1, domain_count // 50)
    for index in range(hoster_count):
        world.add_delegated_zone(
            f"hoster{index}.nl.",
            [(f"ns.hoster{index}.nl", Region.EU)],
            3600,
            parent=nl,
            parent_ttl=3600,
        )

    for index in range(domain_count):
        domain = f"domain{index}.nl."
        hoster = f"ns.hoster{index % hoster_count}.nl"
        address = A(str(ipaddress.IPv4Address(0xC6336400 + index % 250)))
        zone = world.add_zone(Zone(domain, default_ttl=3600))
        zone.add_soa(f"{hoster}.")
        zone.add(domain, RdataType.NS, NS(Name(hoster)), ttl=3600)
        zone.add(domain, RdataType.A, address, ttl=3600)
        zone.add(f"www.{domain}", RdataType.A, address, ttl=3600)
        world.servers[hoster].add_zone(zone)
        nl.add(domain, RdataType.NS, NS(Name(hoster)), ttl=3600)

    world.keep_query_logs()
    return NlWorld(
        world=world,
        server_names=server_names,
        monitored=["ns1.dns.nl", "ns3.dns.nl"],
    )


# --------------------------------------------------------------------------- §6.2
@dataclass
class ControlledWorld:
    """The mapache-de-madrid.co controlled TTL/anycast experiment."""

    world: World
    zone_unicast_60: Zone
    zone_unicast_86400: Zone
    zone_anycast: Zone
    unicast_server: AuthoritativeServer
    anycast: AnycastCluster


def build_controlled_world(seed: int = 0, anycast_sites: int = 45) -> ControlledWorld:
    """Test domains served from Frankfurt (unicast) and a 45-site anycast.

    Three sibling zones under .co carry the three configurations the paper
    compares: TTL 60 s unicast, TTL 86400 s unicast, TTL 60 s anycast.
    """
    world = build_base_world(seed)
    co = world.add_delegated_zone("co.", [("ns.cctld.co", Region.SA)], 172800)

    def make_test_zone(origin: str, answer_ttl: int) -> Zone:
        zone = Zone(origin, default_ttl=3600)
        zone.add_soa(f"ns1.{origin}")
        zone.add(origin, RdataType.NS, NS(Name(f"ns1.{origin}")), ttl=3600)
        zone.add(f"*.{origin}", RdataType.AAAA, AAAA("2001:db8:60::1"), ttl=answer_ttl)
        return zone

    def delegate_test_zone(zone: Zone, address: str) -> None:
        # ns1.<zone> names the shared server's address, in the zone and
        # as .co glue.
        ns_name = f"ns1.{zone.origin}"
        zone.replace(ns_name, RdataType.A, A(address), ttl=3600)
        world.add_zone(zone)
        co.add(zone.origin, RdataType.NS, NS(Name(ns_name)), ttl=172800)
        co.add(ns_name, RdataType.A, A(address), ttl=172800)

    # Unicast: one Frankfurt-like EU server hosting both TTL variants.
    zone60 = make_test_zone("ttl60.mapache-de-madrid.co.", 60)
    zone86400 = make_test_zone("ttl86400.mapache-de-madrid.co.", 86400)
    unicast = world.add_server("ns1-unicast.mapache-de-madrid.co", Region.EU)
    for zone in (zone60, zone86400):
        unicast.add_zone(zone)
        delegate_test_zone(zone, unicast.endpoint.address)

    # Anycast: Route53-like, 45 sites spread over all regions.
    zone_any = make_test_zone("anycast.mapache-de-madrid.co.", 60)
    region_cycle = [Region.NA, Region.EU, Region.AS, Region.SA, Region.OC, Region.AF]
    site_regions = [region_cycle[i % len(region_cycle)] for i in range(anycast_sites)]
    cluster = world.add_anycast("route53-like", site_regions, [zone_any])
    delegate_test_zone(zone_any, cluster.service_address)

    world.keep_query_logs()
    return ControlledWorld(
        world=world,
        zone_unicast_60=zone60,
        zone_unicast_86400=zone86400,
        zone_anycast=zone_any,
        unicast_server=unicast,
        anycast=cluster,
    )


@dataclass
class SingleZoneWorld:
    """One small zone behind one authoritative: the TTL-sweep testbed.

    Everything a per-TTL cell needs and nothing more — a root server,
    one child zone with every record at the cell's TTL, and the single
    child server whose outage a fault plan schedules and whose query
    counter is the "authoritative volume" axis.  The §6.1 DDoS tiers use
    it as is; the prefetch, ECS/CDN and push testbeds extend it.
    """

    world: World
    zone: Zone
    server: AuthoritativeServer

    @property
    def target_address(self) -> str:
        """The address a ``server_outage`` fault should target."""
        return self.server.endpoint.address

    @property
    def auth_queries(self) -> int:
        """Queries the child authoritative has answered so far."""
        return self.server.queries_received


def _single_zone_world(
    origin: str, ttl: int, seed: int, make_server=None
) -> tuple[World, Zone, AuthoritativeServer]:
    """A root server plus one child zone behind one authoritative.

    The shape every TTL-sweep testbed shares: the root delegation keeps
    its realistic 2-day TTL, while the child zone's SOA, NS and
    in-bailiwick glue all carry ``ttl`` — so whatever the caller adds at
    ``ttl`` expires exactly ``ttl`` seconds after it was cached.

    ``make_server(topology, zone)`` builds the child authoritative
    (default: a plain server on an EU endpoint named ``ns1.<origin>``).
    It runs right after the root server is placed, so endpoints it
    allocates keep their place in the address sequence.
    """
    host = f"ns1.{origin}".rstrip(".")
    world = _root_world(seed)
    root_zone = world.root_zone
    root_zone.add_soa("a.rootsrv.net.")
    root_zone.add(root, RdataType.NS, NS(Name("a.rootsrv.net.")), ttl=518400)
    root_server = world.add_server("a.rootsrv.net", Region.NA, [root_zone])
    root_zone.add("a.rootsrv.net.", RdataType.A, A(root_server.endpoint.address))
    world.hints[Name("a.rootsrv.net.")] = root_server.endpoint.address

    if make_server is None:
        zone = world.add_delegated_zone(origin, [(host, Region.EU)], ttl)
        return world, zone, world.servers[host]
    zone = world.add_zone(Zone(origin, default_ttl=ttl))
    zone.add_soa(f"{host}.")
    zone.add(origin, RdataType.NS, NS(Name(host)), ttl=ttl)
    server = make_server(world.topology, zone)
    world.network.register(server)
    world.servers[host] = server
    world._server_addresses[host] = server.endpoint.address
    zone.add(f"{host}.", RdataType.A, A(server.endpoint.address), ttl=ttl)
    world.delegate(root_zone, origin, [f"{host}."], ROOT_DELEGATION_TTL)
    return world, zone, server


def build_outage_world(ttl: int, seed: int = 0) -> SingleZoneWorld:
    """Build the DDoS-resilience world for one TTL tier.

    The root delegation keeps its realistic 2-day TTL; the child zone —
    NS, in-bailiwick glue, and the ``www`` answer — all carry ``ttl``, so
    the record under attack expires exactly ``ttl`` seconds after the
    cache was warmed.
    """
    world, zone, server = _single_zone_world("shop.example.", ttl, seed)
    zone.add("www.shop.example.", RdataType.A, A("203.0.113.10"), ttl=ttl)
    return SingleZoneWorld(world=world, zone=zone, server=server)


# ---------------------------------------------------------- prefetch tradeoff
@dataclass
class HotsetWorld(SingleZoneWorld):
    """A Zipf-skewed hot set behind one authoritative (prefetch study).

    One zone, ``names`` leaf A records all at the cell's TTL, one child
    server whose query counter is the "authoritative volume" axis of the
    prefetch/refresh-ahead trade-off figure.
    """

    #: The resolvable leaf names, rank order (``qnames[0]`` is rank 0 —
    #: feed :class:`repro.workload.ZipfSampler` ranks straight in).
    qnames: list[str]


def build_hotset_world(ttl: int, seed: int = 0, names: int = 16) -> HotsetWorld:
    """Build the prefetch-tradeoff world for one TTL cell.

    A realistic 2-day root delegation, and a child zone whose NS, glue,
    and all ``names`` leaf answers carry ``ttl`` — so every record a
    client asks for expires exactly ``ttl`` seconds after it was cached.
    """
    world, zone, server = _single_zone_world("hot.example.", ttl, seed)
    qnames = []
    for rank in range(names):
        qname = f"www{rank}.hot.example."
        zone.add(
            qname,
            RdataType.A,
            A(str(ipaddress.IPv4Address(0xCB007100 + rank % 250))),
            ttl=ttl,
        )
        qnames.append(qname)
    return HotsetWorld(world=world, zone=zone, server=server, qnames=qnames)


# ------------------------------------------------------------------ ECS + CDN
@dataclass(frozen=True)
class EcsClient:
    """One simulated client population: a /24 and a place on the map."""

    index: int
    endpoint: Endpoint
    subnet: "ClientSubnet"
    region: Region
    #: Which public-resolver egress this subnet's anycast routing lands on
    #: ("eu" or "na") — the catchment that decouples client location from
    #: resolver location.
    egress: str


@dataclass
class EcsCdnWorld(SingleZoneWorld):
    """The ECS/CDN interplay testbed (RFC 7871 scenario family).

    One CDN zone whose content answer depends on where the query comes
    from: ``sites`` per region, a deterministic subnet→site map, client
    /24s spread over three regions, and public-resolver egress points
    whose anycast catchment sends AS clients to the EU egress — the
    misdirection that ECS exists to repair.  ``server`` is the
    :class:`~repro.server.cdn.CdnAuthoritativeServer`.
    """

    content_name: str
    sites: dict[str, "CdnSite"]
    site_endpoints: dict[str, Endpoint]
    clients: list[EcsClient]
    #: Per-region ISP resolver endpoints (clients use their own region's).
    isp_endpoints: dict[Region, Endpoint]
    #: Public-resolver egress endpoints, keyed "eu"/"na".
    egress_endpoints: dict[str, Endpoint]


_ECS_REGION_CYCLE = (Region.EU, Region.NA, Region.AS)
_ECS_SITE_OF_REGION = {Region.EU: "eu", Region.NA: "na", Region.AS: "as"}
#: Anycast catchment: AS clients land on the EU egress (no AS egress),
#: which is exactly the client/resolver decoupling the papers measure.
_ECS_EGRESS_OF_REGION = {Region.EU: "eu", Region.NA: "na", Region.AS: "eu"}


def _ecs_client_network(index: int) -> str:
    """The /24 network address for client population ``index``.

    Uses the RFC 2544 benchmarking block upward from 198.18.0.0, giving
    distinct /24s for as many populations as the cardinality bench asks
    for (1024 needs 198.18.0.0 through 198.21.255.0).
    """
    return f"198.{18 + index // 256}.{index % 256}.0"


def build_ecs_cdn_world(ttl: int, seed: int = 0, subnets: int = 8) -> EcsCdnWorld:
    """Build the ECS + CDN world for one (ttl, subnets) cell.

    The usual single-zone shape, but the child authoritative is a
    :class:`~repro.server.cdn.CdnAuthoritativeServer` answering
    ``www.cdn.example.`` with a per-region site address: by ECS subnet
    when the query carries one, by the resolver's own address otherwise.
    Per-site TTLs all carry the cell's ``ttl`` so cache decay is uniform
    across sites and the TTL sweep stays interpretable.
    """
    from repro.dns.ecs import ClientSubnet
    from repro.server.cdn import CdnAuthoritativeServer, CdnSite

    if subnets < 1:
        raise ValueError(f"need at least one client subnet, got {subnets}")
    content_name = "www.cdn.example."
    sites: dict[str, CdnSite] = {}
    site_endpoints: dict[str, Endpoint] = {}
    isp_endpoints: dict[Region, Endpoint] = {}
    egress_endpoints: dict[str, Endpoint] = {}
    clients: list[EcsClient] = []

    def make_cdn(topology: Topology, zone: Zone) -> CdnAuthoritativeServer:
        # Content sites, one per region, in TEST-NET-3 address space.
        for site_name, region, address in (
            ("eu", Region.EU, "203.0.113.1"),
            ("na", Region.NA, "203.0.113.2"),
            ("as", Region.AS, "203.0.113.3"),
        ):
            allocated = topology.endpoint_in_region(region, name=f"cdn-site-{site_name}")
            site_endpoints[site_name] = Endpoint(
                address=address,
                region=allocated.region,
                asn=allocated.asn,
                name=f"cdn-site-{site_name}",
            )
            sites[site_name] = CdnSite(
                name=site_name, address=address, ttl=ttl, region=region
            )

        # Resolver seats are allocated here so the CDN map can route their
        # addresses; the scenario builds RecursiveResolvers on these exact
        # endpoints.
        for region in _ECS_REGION_CYCLE:
            isp_endpoints[region] = topology.endpoint_in_region(
                region, name=f"isp-res-{region.name.lower()}"
            )
        egress_endpoints["eu"] = topology.endpoint_in_region(Region.EU, name="public-egress-eu")
        egress_endpoints["na"] = topology.endpoint_in_region(Region.NA, name="public-egress-na")

        site_map: list[tuple[str, str]] = []
        for index in range(subnets):
            region = _ECS_REGION_CYCLE[index % len(_ECS_REGION_CYCLE)]
            network_address = _ecs_client_network(index)
            allocated = topology.endpoint_in_region(region, name=f"client-{index}")
            endpoint = Endpoint(
                address=network_address[:-1] + "10",
                region=allocated.region,
                asn=allocated.asn,
                name=f"client-{index}",
            )
            clients.append(
                EcsClient(
                    index=index,
                    endpoint=endpoint,
                    subnet=ClientSubnet.from_ip(network_address, 24),
                    region=region,
                    egress=_ECS_EGRESS_OF_REGION[region],
                )
            )
            site_map.append((f"{network_address}/24", _ECS_SITE_OF_REGION[region]))
        for region, endpoint in isp_endpoints.items():
            site_map.append((f"{endpoint.address}/32", _ECS_SITE_OF_REGION[region]))
        site_map.append((f"{egress_endpoints['eu'].address}/32", "eu"))
        site_map.append((f"{egress_endpoints['na'].address}/32", "na"))
        return CdnAuthoritativeServer(
            topology.endpoint_in_region(Region.EU, "ns1.cdn.example"),
            [zone],
            content_names=[content_name],
            sites=sites.values(),
            site_map=site_map,
            default_site="eu",
        )

    world, zone, cdn = _single_zone_world("cdn.example.", ttl, seed, make_cdn)
    return EcsCdnWorld(
        world=world,
        zone=zone,
        server=cdn,
        content_name=content_name,
        sites=sites,
        site_endpoints=site_endpoints,
        clients=clients,
        isp_endpoints=isp_endpoints,
        egress_endpoints=egress_endpoints,
    )


# ------------------------------------------------------------- push vs poll
@dataclass
class PushWorld(SingleZoneWorld):
    """The push-vs-poll testbed: one renumbering-prone record.

    The :class:`SingleZoneWorld` shape — a realistic root delegation plus
    one child zone behind one authoritative — but the interesting record
    is the content answer itself, which the scenario renumbers on the
    fault plan's ``record_change`` schedule.  :meth:`apply_change` is the
    one mutation primitive; the scenario publishes through the attached
    :class:`~repro.push.publisher.PushPublisher` (if any) right after.
    """

    #: The record the scenario probes and renumbers.
    content_name: str
    #: TTL every child-zone record carries.
    ttl: int

    def content_address(self, change_index: int) -> str:
        """The content record's address after change ``change_index``.

        The record starts at ``203.0.113.10``; change ``k`` renumbers it
        to ``203.0.113.(11 + k mod 200)`` — every change is visible.
        """
        return str(ipaddress.IPv4Address(0xCB007100 + 11 + change_index % 200))

    def apply_change(self, change_index: int) -> str:
        """Renumber the content record; returns the new address."""
        address = self.content_address(change_index)
        self.zone.replace(self.content_name, RdataType.A, A(address), ttl=self.ttl)
        return address


def build_push_world(ttl: int, seed: int = 0) -> PushWorld:
    """Build the push-vs-poll world for one TTL cell.

    The root delegation keeps its 2-day TTL, the child zone — NS, glue,
    and the ``www`` content answer — all carry ``ttl``, and the content
    record starts at change index 0's predecessor (``203.0.113.10``).
    """
    world, zone, server = _single_zone_world("pushed.example.", ttl, seed)
    zone.add("www.pushed.example.", RdataType.A, A("203.0.113.10"), ttl=ttl)
    return PushWorld(
        world=world,
        zone=zone,
        server=server,
        content_name="www.pushed.example.",
        ttl=ttl,
    )
