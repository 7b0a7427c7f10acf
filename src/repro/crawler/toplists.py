"""Synthetic top-list generation (the crawl's measurement targets).

The paper crawls five lists (Table 5): Alexa and Majestic (1M 2LDs),
Umbrella (1M FQDNs, many CDN/cloud hosts), the .nl zone (5.6M 2LDs) and
the root (1562 TLDs).  Those lists are proprietary snapshots, so we
generate synthetic populations whose *distributions* match what the paper
reports:

- responsiveness ratios (Table 5's ``ratio`` row),
- TTL distributions per record type (Figure 9: human-chosen values, the
  root long-lived, Umbrella short-lived, NS/DNSKEY longest, A/AAAA
  shortest),
- hosting concentration (Table 5's unique-record ratios),
- bailiwick profile (Table 9: >90 % out-of-bailiwick-only for popular
  lists, ~49 % for the root),
- TTL=0 incidence (Table 8), and
- content categories for .nl (Tables 6 and 7).

Every domain is actually *hosted*: child zones are built and served by
simulated authoritative servers, and the TLD zones carry the delegations
and glue, so the crawler exercises the same query path the paper's does.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.dns.name import Name
from repro.dns.rdtypes import AAAA, A, CNAME, DNSKEY, MX, NS, RdataType
from repro.dns.zone import Zone
from repro.net.topology import Region, Topology
from repro.net.transport import Network
from repro.server.authoritative import AuthoritativeServer

#: TTL buckets (value, weight) — "times reflect human-chosen values
#: (10 minutes and 1, 24, or 48 hours)" (§5.1).
TTLBuckets = list[tuple[int, float]]


@dataclass(frozen=True)
class TTLProfile:
    """Per-record-type TTL distributions for one list."""

    ns: TTLBuckets
    a: TTLBuckets
    aaaa: TTLBuckets
    mx: TTLBuckets
    dnskey: TTLBuckets
    cname: TTLBuckets
    #: Probability of a zero TTL, per record type (Table 8's incidence).
    ttl0: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ListProfile:
    """One top list's generation parameters."""

    name: str
    format: str  # "2LD", "FQDN", or "TLD"
    domains: int
    responsive_rate: float
    #: (out-only, in-only, mixed) weights among NS-responding domains.
    bailiwick: tuple[float, float, float]
    #: Among responsive FQDN-format entries: fraction answering NS queries
    #: with a CNAME / with NODATA-SOA (hosts rather than zone apexes).
    cname_rate: float
    soa_rate: float
    #: Record presence rates.
    aaaa_rate: float
    mx_rate: float
    dnskey_rate: float
    ttl: TTLProfile
    #: Hosting concentration: mean domains per provider (drives the
    #: unique-NS ratio of Table 5).
    domains_per_provider: float = 25.0
    #: Mean domains per web IP (drives the unique-A ratio).
    domains_per_address: float = 2.2
    tlds: tuple[str, ...] = ("com", "net", "org")


def _profile_alexa() -> ListProfile:
    return ListProfile(
        name="Alexa",
        format="2LD",
        domains=1_000_000,
        responsive_rate=0.99,
        bailiwick=(0.950, 0.040, 0.010),
        cname_rate=0.05,
        soa_rate=0.013,
        aaaa_rate=0.28,
        mx_rate=0.68,
        dnskey_rate=0.043,
        ttl=TTLProfile(
            ns=[(300, 0.04), (3600, 0.14), (7200, 0.06), (21600, 0.10),
                (86400, 0.42), (172800, 0.24)],
            a=[(60, 0.08), (300, 0.26), (600, 0.08), (3600, 0.34),
               (14400, 0.08), (86400, 0.16)],
            aaaa=[(60, 0.08), (300, 0.30), (3600, 0.36), (14400, 0.08), (86400, 0.18)],
            mx=[(300, 0.10), (3600, 0.42), (14400, 0.14), (86400, 0.34)],
            dnskey=[(3600, 0.30), (21600, 0.20), (86400, 0.40), (172800, 0.10)],
            cname=[(300, 0.45), (3600, 0.40), (86400, 0.15)],
            ttl0={"ns": 0.0046, "a": 0.0009, "aaaa": 0.0009, "mx": 0.0010, "dnskey": 0.0},
        ),
        domains_per_provider=9.2,
        domains_per_address=2.18,
    )


def _profile_majestic() -> ListProfile:
    return ListProfile(
        name="Majestic",
        format="2LD",
        domains=1_000_000,
        responsive_rate=0.93,
        bailiwick=(0.957, 0.031, 0.012),
        cname_rate=0.008,
        soa_rate=0.009,
        aaaa_rate=0.23,
        mx_rate=0.66,
        dnskey_rate=0.041,
        ttl=TTLProfile(
            ns=[(300, 0.03), (3600, 0.12), (21600, 0.10), (86400, 0.46), (172800, 0.29)],
            a=[(60, 0.06), (300, 0.22), (3600, 0.38), (14400, 0.10), (86400, 0.24)],
            aaaa=[(300, 0.28), (3600, 0.38), (86400, 0.34)],
            mx=[(300, 0.08), (3600, 0.40), (14400, 0.16), (86400, 0.36)],
            dnskey=[(3600, 0.28), (21600, 0.20), (86400, 0.42), (172800, 0.10)],
            cname=[(300, 0.40), (3600, 0.42), (86400, 0.18)],
            ttl0={"ns": 0.0045, "a": 0.0006, "aaaa": 0.0072, "mx": 0.0009, "dnskey": 0.0001},
        ),
        domains_per_provider=10.4,
        domains_per_address=1.98,
    )


def _profile_umbrella() -> ListProfile:
    return ListProfile(
        name="Umbrella",
        format="FQDN",
        domains=1_000_000,
        responsive_rate=0.78,
        bailiwick=(0.901, 0.074, 0.025),
        cname_rate=0.578,
        soa_rate=0.075,
        aaaa_rate=0.37,
        mx_rate=0.48,
        dnskey_rate=0.015,
        ttl=TTLProfile(
            # "25% of its domains with NS records are under 1 minute" —
            # transient cloud/CDN names (§5.1).
            ns=[(20, 0.12), (60, 0.14), (300, 0.16), (3600, 0.18),
                (86400, 0.26), (172800, 0.14)],
            a=[(20, 0.16), (60, 0.22), (300, 0.26), (3600, 0.22), (86400, 0.14)],
            aaaa=[(20, 0.14), (60, 0.22), (300, 0.28), (3600, 0.22), (86400, 0.14)],
            mx=[(300, 0.22), (3600, 0.42), (86400, 0.36)],
            dnskey=[(3600, 0.40), (86400, 0.50), (172800, 0.10)],
            cname=[(20, 0.14), (60, 0.20), (300, 0.34), (3600, 0.24), (86400, 0.08)],
            ttl0={"ns": 0.0017, "a": 0.0007, "aaaa": 0.0001, "mx": 0.0004, "dnskey": 0.0001},
        ),
        domains_per_provider=8.0,
        domains_per_address=2.50,
        tlds=("com", "net", "io"),
    )


def _profile_nl() -> ListProfile:
    return ListProfile(
        name=".nl",
        format="2LD",
        domains=5_582_431,
        responsive_rate=0.94,
        bailiwick=(0.997, 0.002, 0.001),
        cname_rate=0.002,
        soa_rate=0.002,
        aaaa_rate=0.39,
        mx_rate=0.71,
        dnskey_rate=0.66,  # .nl has very high DNSSEC deployment
        ttl=TTLProfile(
            # "about 40% of .nl children have shorter TTLs" than the 1-hour
            # parent (§5.1); weights chosen so the *overall* population
            # (including the category-driven domains of Tables 6/7, whose
            # NS TTLs are hours) lands at ~40 % below 3600 s.
            ns=[(300, 0.12), (900, 0.16), (1800, 0.27), (3600, 0.15),
                (14400, 0.15), (86400, 0.15)],
            a=[(300, 0.18), (900, 0.14), (3600, 0.44), (14400, 0.12), (86400, 0.12)],
            aaaa=[(300, 0.16), (3600, 0.48), (14400, 0.18), (86400, 0.18)],
            mx=[(300, 0.08), (3600, 0.52), (14400, 0.20), (86400, 0.20)],
            dnskey=[(3600, 0.42), (14400, 0.28), (86400, 0.30)],
            cname=[(300, 0.30), (3600, 0.55), (86400, 0.15)],
            ttl0={"ns": 0.0006, "a": 0.0001, "aaaa": 0.0000, "mx": 0.0000, "dnskey": 0.0},
        ),
        domains_per_provider=190.0,
        domains_per_address=19.6,
        tlds=("nl",),
    )


def _profile_root() -> ListProfile:
    return ListProfile(
        name="Root",
        format="TLD",
        domains=1562,
        responsive_rate=0.97,
        bailiwick=(0.487, 0.426, 0.087),
        cname_rate=0.0,
        soa_rate=0.0,
        aaaa_rate=0.90,
        mx_rate=0.06,
        dnskey_rate=0.0,
        ttl=TTLProfile(
            # "In the root, about 80% of records have TTLs of 1 or 2 days";
            # 34 TLDs < 30 min, 122 TLDs < 2 h among 1562 (§5.2).
            ns=[(30, 0.004), (300, 0.008), (480, 0.010), (3600, 0.056),
                (21600, 0.062), (86400, 0.42), (172800, 0.44)],
            a=[(300, 0.02), (3600, 0.08), (21600, 0.08), (86400, 0.42), (172800, 0.40)],
            aaaa=[(3600, 0.08), (21600, 0.08), (86400, 0.44), (172800, 0.40)],
            mx=[(3600, 0.30), (86400, 0.70)],
            dnskey=[(86400, 1.0)],
            cname=[(3600, 1.0)],
            ttl0={},
        ),
        domains_per_provider=3.0,
        domains_per_address=1.3,
        tlds=(),
    )


LIST_PROFILES: dict[str, ListProfile] = {
    "alexa": _profile_alexa(),
    "majestic": _profile_majestic(),
    "umbrella": _profile_umbrella(),
    "nl": _profile_nl(),
    "root": _profile_root(),
}


@dataclass
class GeneratedDomain:
    """One crawl target with ground-truth metadata."""

    name: Name
    list_name: str
    format: str
    responsive: bool
    #: "apex" (owns NS), "cname" (host aliased to a CDN), "host" (plain
    #: host inside a zone, NS query yields NODATA/SOA).
    kind: str
    bailiwick: str  # "out", "in", "mixed" (apex domains only)
    parent: Name  # the delegating zone origin
    ns_names: tuple[Name, ...] = ()
    #: DMap content category for .nl domains (Tables 6/7), else None.
    category: Optional[str] = None


@dataclass
class CrawlUniverse:
    """A hosted population of list domains plus the serving infrastructure."""

    seed: int
    network: Network
    topology: Topology
    tld_zones: dict[str, Zone]
    tld_server_addresses: dict[str, str]
    domains: list[GeneratedDomain]
    #: Ground-truth server addresses the crawler may consult in place of
    #: full recursion (the paper's crawler also resolved server names
    #: out-of-band before querying children directly).
    host_addresses: dict[Name, str]
    root_server_address: str = ""
    lists: dict[str, list[GeneratedDomain]] = field(default_factory=dict)

    # -- worldcache reuse ---------------------------------------------------
    def capture_baseline(self):
        """Topology mark for :meth:`restore_baseline` (crawl worldcache)."""
        return self.topology.mark()

    def restore_baseline(self, baseline, seed: int) -> None:
        """Reset runtime state so the universe can serve another shard.

        The crawl universe is identical in every shard (it is built from
        the campaign seed, not the shard seed), so the reset only drops
        per-shard runtime residue: the crawler's client endpoint rewinds
        off the topology, server query logs clear, and the fabric's RNG
        streams restart.
        """
        self.topology.reset_to(baseline, seed)
        self.network.reset_runtime(seed)


#: .nl content-category profile (Tables 6/7): share among classified
#: domains and the per-type TTLs that realize the table's medians (hours:
#: NS 4/24/4, A 1/1/1, AAAA 0.1/1/4, MX 1/1/1, DNSKEY 1/24/4).
NL_CATEGORY_SHARES = {
    "placeholder": 1199152 / 1475267,
    "ecommerce": 148564 / 1475267,
    "parking": 127551 / 1475267,
}

NL_CATEGORY_TTLS: dict[str, dict[str, int]] = {
    "ecommerce": {"ns": 14400, "a": 3600, "aaaa": 360, "mx": 3600, "dnskey": 3600},
    "parking": {"ns": 86400, "a": 3600, "aaaa": 3600, "mx": 3600, "dnskey": 86400},
    "placeholder": {"ns": 14400, "a": 3600, "aaaa": 14400, "mx": 3600, "dnskey": 14400},
}


class _UniverseBuilder:
    """Internal: builds one CrawlUniverse."""

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.rng = random.Random(seed ^ 0xC4A31)
        self.seed = seed
        self.topology = Topology(seed=seed)
        self.network = Network(seed=seed)
        self.tld_zones: dict[str, Zone] = {}
        self.tld_server_addresses: dict[str, str] = {}
        self.host_addresses: dict[Name, str] = {}
        self._provider_servers: dict[str, AuthoritativeServer] = {}
        self._web_ip_pool: dict[str, list[str]] = {}
        self._next_ip = int(ipaddress.IPv4Address("172.16.0.1"))
        self._root_zone = Zone(Name(""), default_ttl=172800)
        self._root_zone.add_soa("a.root-servers.net.")
        root_server = self._add_server("a.root-servers.net", [self._root_zone])
        self._root_zone.add("", RdataType.NS, NS(Name("a.root-servers.net.")), ttl=518400)
        self.host_addresses[Name("a.root-servers.net.")] = root_server.endpoint.address
        self.root_server_address = root_server.endpoint.address

    # -- infrastructure helpers ------------------------------------------------
    def _add_server(
        self, name: str, zones: Optional[list[Zone]] = None
    ) -> AuthoritativeServer:
        region = self.rng.choice(list(Region))
        endpoint = self.topology.endpoint_in_region(region, name=name)
        server = AuthoritativeServer(endpoint, zones or [])
        self.network.register(server)
        return server

    def _fresh_ip(self) -> str:
        ip = str(ipaddress.IPv4Address(self._next_ip))
        self._next_ip += 1
        return ip

    def ensure_tld(self, tld: str) -> Zone:
        zone = self.tld_zones.get(tld)
        if zone is not None:
            return zone
        # .nl delegates at one hour (the paper's §5.1 anchor for the
        # parent-vs-child comparison); generic TLDs at one day.
        delegation_ttl = 3600 if tld == "nl" else 86400
        zone = Zone(f"{tld}.", default_ttl=delegation_ttl)
        zone.add_soa(f"ns.registry-{tld}.net.")
        server = self._add_server(f"ns.registry-{tld}.net", [zone])
        zone.add(f"{tld}.", RdataType.NS, NS(Name(f"ns.registry-{tld}.net.")), ttl=86400)
        self._root_zone.add(f"{tld}.", RdataType.NS, NS(Name(f"ns.registry-{tld}.net.")), ttl=172800)
        self._root_zone.add(
            f"ns.registry-{tld}.net.", RdataType.A, A(server.endpoint.address), ttl=172800
        )
        self.tld_zones[tld] = zone
        self.tld_server_addresses[tld] = server.endpoint.address
        self.host_addresses[Name(f"ns.registry-{tld}.net.")] = server.endpoint.address
        return zone

    def provider(self, list_name: str, index: int) -> tuple[list[Name], AuthoritativeServer]:
        """A shared hosting provider: 2 NS names + a serving machine."""
        key = f"{list_name}-{index}"
        server = self._provider_servers.get(key)
        ns_names = [
            Name(f"ns{n}.{key}.hosting.net.") for n in (1, 2)
        ]
        if server is None:
            server = self._add_server(f"{key}.hosting.net")
            self._provider_servers[key] = server
            for ns_name in ns_names:
                self.host_addresses[ns_name] = server.endpoint.address
        return ns_names, server

    def pick_ttl(self, buckets: TTLBuckets, ttl0_prob: float) -> int:
        if ttl0_prob and self.rng.random() < ttl0_prob:
            return 0
        values = [value for value, _ in buckets]
        weights = [weight for _, weight in buckets]
        return self.rng.choices(values, weights=weights, k=1)[0]

    def web_ip(self, list_name: str, domains_per_address: float) -> str:
        """Shared web-hosting addresses sized to the unique-A ratio."""
        pool = self._web_ip_pool.setdefault(list_name, [])
        if not pool or self.rng.random() < 1.0 / domains_per_address:
            pool.append(self._fresh_ip())
        return self.rng.choice(pool)


def planned_list_sizes(
    scale: float, lists: Optional[list[str]] = None
) -> dict[str, int]:
    """Domains each list will contain at ``scale`` — *without* building
    the universe.  Sharded crawls use this to plan shards cheaply; the
    builder below uses the same numbers, so plans always match."""
    wanted = lists or list(LIST_PROFILES)
    sizes: dict[str, int] = {}
    for list_name in wanted:
        profile = LIST_PROFILES[list_name]
        if profile.format == "TLD":
            sizes[list_name] = max(30, int(profile.domains * max(scale, 0.1)))
        else:
            sizes[list_name] = max(50, int(profile.domains * scale))
    return sizes


def build_crawl_universe(
    scale: float = 0.01,
    seed: int = 0,
    lists: Optional[list[str]] = None,
) -> CrawlUniverse:
    """Generate and host the five lists at ``scale`` times paper size.

    ``scale=0.01`` gives 10k domains per million-entry list; the root list
    is scaled by ``max(scale, 0.1)`` so it keeps enough TLDs to be
    meaningful.
    """
    builder = _UniverseBuilder(scale, seed)
    universe_lists: dict[str, list[GeneratedDomain]] = {}
    for list_name, count in planned_list_sizes(scale, lists).items():
        profile = LIST_PROFILES[list_name]
        if profile.format == "TLD":
            generated = _generate_root_list(builder, profile, count)
        else:
            generated = _generate_sld_list(builder, profile, count, list_name)
        universe_lists[list_name] = generated

    domains = [domain for generated in universe_lists.values() for domain in generated]
    return CrawlUniverse(
        seed=seed,
        network=builder.network,
        topology=builder.topology,
        tld_zones=builder.tld_zones,
        tld_server_addresses=builder.tld_server_addresses,
        domains=domains,
        host_addresses=builder.host_addresses,
        root_server_address=builder.root_server_address,
        lists=universe_lists,
    )


def _generate_sld_list(
    builder: _UniverseBuilder, profile: ListProfile, count: int, list_name: str
) -> list[GeneratedDomain]:
    rng = builder.rng
    generated: list[GeneratedDomain] = []
    provider_count = max(2, int(count / profile.domains_per_provider))
    ttl0 = profile.ttl.ttl0

    nl_categories = list(NL_CATEGORY_SHARES)
    nl_weights = [NL_CATEGORY_SHARES[c] for c in nl_categories]

    for index in range(count):
        tld = rng.choice(profile.tlds)
        tld_zone = builder.ensure_tld(tld)
        base = f"{list_name}-d{index}.{tld}."
        responsive = rng.random() < profile.responsive_rate

        category: Optional[str] = None
        if profile.name == ".nl" and rng.random() < (1475267 / 5454833):
            category = rng.choices(nl_categories, weights=nl_weights, k=1)[0]

        roll = rng.random()
        if roll < profile.cname_rate:
            kind = "cname"
        elif roll < profile.cname_rate + profile.soa_rate:
            kind = "host"
        else:
            kind = "apex"
        # Umbrella-style FQDN entries: CNAME'd CDN hosts and plain hosts
        # live at a www name; "apex" entries are the zone apex itself.
        if profile.format == "FQDN" and kind != "apex":
            fqdn = f"www.{base}"
        else:
            fqdn = base

        bailiwick = rng.choices(
            ["out", "in", "mixed"], weights=list(profile.bailiwick), k=1
        )[0]

        domain = GeneratedDomain(
            name=Name(fqdn),
            list_name=profile.name,
            format=profile.format,
            responsive=responsive,
            kind=kind,
            bailiwick=bailiwick,
            parent=Name(f"{tld}."),
            category=category,
        )
        generated.append(domain)
        if not responsive:
            continue  # listed but dead: no delegation at all

        zone = Zone(base, default_ttl=3600)
        zone.add_soa(f"ns1.{base}")

        provider_ns, provider_server = builder.provider(
            list_name, rng.randrange(provider_count)
        )

        category_ttls = NL_CATEGORY_TTLS.get(category or "", {})

        def ttl_for(rtype: str, buckets: TTLBuckets) -> int:
            if category is not None and rtype in category_ttls:
                # Category median targets with human jitter around them.
                base_ttl = category_ttls[rtype]
                jitter = rng.choice([0.5, 1.0, 1.0, 1.0, 2.0])
                return int(base_ttl * jitter)
            return builder.pick_ttl(buckets, ttl0.get(rtype, 0.0))

        ns_ttl = ttl_for("ns", profile.ttl.ns)
        ns_names: list[Name] = []
        if bailiwick == "out":
            ns_names = list(provider_ns)
        elif bailiwick == "in":
            ns_names = [Name(f"ns1.{base}"), Name(f"ns2.{base}")]
        else:
            ns_names = [provider_ns[0], Name(f"ns1.{base}")]

        server = provider_server
        # A 2LD answering NS queries with a CNAME (apex alias) or SOA
        # (plain host zone) carries no apex NS set in the child, though the
        # TLD still delegates it — the Table 9 "CNAME"/"SOA" rows.
        child_has_apex_ns = profile.format == "FQDN" or kind == "apex"
        for ns_name in ns_names:
            if child_has_apex_ns:
                zone.add(base, RdataType.NS, NS(ns_name), ttl=ns_ttl)
            tld_zone.add(base, RdataType.NS, NS(ns_name), ttl=tld_zone.default_ttl)
            if ns_name.is_subdomain_of(Name(base)):
                # In-bailiwick server: host it on the provider's machine
                # anyway, but publish glue in the TLD.
                zone.add(ns_name, RdataType.A, A(server.endpoint.address), ttl=ns_ttl)
                tld_zone.add(
                    ns_name, RdataType.A, A(server.endpoint.address),
                    ttl=tld_zone.default_ttl,
                )
                builder.host_addresses[ns_name] = server.endpoint.address
        domain.ns_names = tuple(ns_names)

        a_ttl = ttl_for("a", profile.ttl.a)
        web_ip = builder.web_ip(list_name, profile.domains_per_address)
        apex_is_cname = profile.format != "FQDN" and kind == "cname"
        if apex_is_cname:
            zone.add(
                base, RdataType.CNAME,
                CNAME(Name(f"edge{rng.randrange(max(2, count // 40))}.cdn-net.com.")),
                ttl=builder.pick_ttl(profile.ttl.cname, 0.0),
            )
        else:
            zone.add(base, RdataType.A, A(web_ip), ttl=a_ttl)
        if not apex_is_cname and rng.random() < profile.aaaa_rate:
            # IPv6 web hosting is shared like IPv4 (unique ratio ~2.2).
            v6_pool = max(2, int(count * profile.aaaa_rate / 2.2))
            zone.add(
                base, RdataType.AAAA, AAAA(f"2001:db8::{rng.randrange(v6_pool) + 1:x}"),
                ttl=ttl_for("aaaa", profile.ttl.aaaa),
            )
        if not apex_is_cname and rng.random() < profile.mx_rate:
            # Mail hosting is moderately concentrated (Table 5's MX unique
            # ratio is ~3.5 across lists).
            mail_host = f"mx.mail{rng.randrange(max(2, count // 5))}.net."
            zone.add(
                base, RdataType.MX, MX(10, Name(mail_host)),
                ttl=ttl_for("mx", profile.ttl.mx),
            )
        if not apex_is_cname and rng.random() < profile.dnskey_rate:
            zone.add(
                base,
                RdataType.DNSKEY,
                DNSKEY(257, 3, 13, bytes([index % 256, (index >> 8) % 256]) * 4),
                ttl=ttl_for("dnskey", profile.ttl.dnskey),
            )

        if profile.format == "FQDN" and kind == "cname":
            # CDN aliases: roughly half point at per-customer edge names,
            # half at shared platform names (Table 5's unique-CNAME ratio).
            if rng.random() < 0.5:
                cdn = f"{base.rstrip('.').replace('.', '-')}.edgekey.net."
            else:
                cdn = f"edge{rng.randrange(max(2, count // 40))}.cdn-net.com."
            zone.add(
                fqdn, RdataType.CNAME, CNAME(Name(cdn)),
                ttl=builder.pick_ttl(profile.ttl.cname, 0.0),
            )
        elif profile.format == "FQDN" and kind == "host":
            zone.add(fqdn, RdataType.A, A(web_ip), ttl=a_ttl)
        server.add_zone(zone)
    return generated


def _generate_root_list(
    builder: _UniverseBuilder, profile: ListProfile, count: int
) -> list[GeneratedDomain]:
    """TLDs delegated from the root, per the root profile."""
    rng = builder.rng
    generated: list[GeneratedDomain] = []
    for index in range(count):
        tld = f"tld{index}"
        responsive = rng.random() < profile.responsive_rate
        bailiwick = rng.choices(
            ["out", "in", "mixed"], weights=list(profile.bailiwick), k=1
        )[0]
        domain = GeneratedDomain(
            name=Name(f"{tld}."),
            list_name=profile.name,
            format="TLD",
            responsive=responsive,
            kind="apex",
            bailiwick=bailiwick,
            parent=Name(""),
        )
        generated.append(domain)
        if not responsive:
            continue

        zone = Zone(f"{tld}.", default_ttl=86400)
        zone.add_soa(f"a.nic.{tld}.")
        server = builder._add_server(f"a.nic.{tld}")
        ns_ttl = builder.pick_ttl(profile.ttl.ns, 0.0)
        a_ttl = builder.pick_ttl(profile.ttl.a, 0.0)

        # Out-of-bailiwick TLD service runs on shared anycast operators
        # (PCH, Netnod, ... in reality); each hosts many TLD zones.
        if bailiwick == "out":
            anycast_ns, anycast_server = builder.provider("root", index % 40)
            ns_names = [anycast_ns[0]]
            anycast_server.add_zone(zone)
        elif bailiwick == "in":
            ns_names = [Name(f"a.nic.{tld}.")]
        else:
            anycast_ns, anycast_server = builder.provider("root", index % 40)
            ns_names = [Name(f"a.nic.{tld}."), anycast_ns[0]]
            anycast_server.add_zone(zone)

        for ns_name in ns_names:
            zone.add(f"{tld}.", RdataType.NS, NS(ns_name), ttl=ns_ttl)
            builder._root_zone.add(f"{tld}.", RdataType.NS, NS(ns_name), ttl=172800)
            if ns_name.is_subdomain_of(Name(f"{tld}.")):
                zone.add(ns_name, RdataType.A, A(server.endpoint.address), ttl=a_ttl)
                if rng.random() < profile.aaaa_rate:
                    zone.add(
                        ns_name, RdataType.AAAA, AAAA(f"2001:db8:aaa:{index % 65535:x}::1"),
                        ttl=builder.pick_ttl(profile.ttl.aaaa, 0.0),
                    )
                builder._root_zone.add(
                    ns_name, RdataType.A, A(server.endpoint.address), ttl=172800
                )
                builder.host_addresses[ns_name] = server.endpoint.address
        if rng.random() < profile.mx_rate:
            zone.add(
                f"{tld}.", RdataType.MX, MX(10, Name(f"mail.nic.{tld}.")),
                ttl=builder.pick_ttl(profile.ttl.mx, 0.0),
            )
        server.add_zone(zone)
        domain.ns_names = tuple(ns_names)
        builder.tld_zones.setdefault(tld, zone)
        builder.tld_server_addresses.setdefault(tld, server.endpoint.address)
    return generated
