"""A CDN-style authoritative server: subnet-dependent answers.

Content delivery networks answer the *same* qname with *different*
addresses depending on where the query (appears to) come from — the
mapping system routes each client to a nearby site.  Two inputs feed the
decision, in order of preference:

1. the RFC 7871 ECS option in the query, when present — the real client
   subnet forwarded by an ECS-speaking resolver;
2. otherwise the querying resolver's own address — the classic fallback
   that misroutes clients of centralized public resolvers, the effect
   "Public DNS Resolvers Meet Content Delivery Networks" measures.

The map is a deterministic longest-prefix table (no load balancing, no
health checks), so campaigns stay byte-reproducible.  Answers chosen via
ECS are echoed back with a non-zero scope (the matched prefix length),
which is what drives the resolver's subnet-scoped cache overlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.dns.ecs import ClientSubnet, extract_client_subnet
from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import A, RdataType
from repro.dns.record import RRset
from repro.dns.wire import WireError
from repro.dns.zone import Zone
from repro.metrics.registry import LABELED_COUNTER
from repro.net.topology import Endpoint, Region
from repro.server.authoritative import AuthoritativeServer
from repro.server.querylog import QueryLogEntry

if TYPE_CHECKING:
    from repro.metrics import MetricsRegistry


@dataclass(frozen=True)
class CdnSite:
    """One content site: where the CDN can send a client."""

    name: str
    address: str
    ttl: int
    region: Region


def _parse_prefix(cidr: str) -> ClientSubnet:
    address, _, prefix = cidr.partition("/")
    if not prefix:
        raise ValueError(f"prefix required in CDN map entry {cidr!r}")
    return ClientSubnet.from_ip(address, int(prefix))


class CdnAuthoritativeServer(AuthoritativeServer):
    """Serves ``content_names`` with per-subnet site answers.

    ``site_map`` is an iterable of ``(cidr, site_name)`` pairs matched
    longest-prefix-first; ``default_site`` answers anything unmatched.
    Non-content names fall through to the normal zone lookup, so the
    zone's SOA/NS/glue keep the delegation working.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        zones: Optional[Iterable[Zone]] = None,
        *,
        content_names: Iterable[Name | str],
        sites: Iterable[CdnSite],
        site_map: Iterable[tuple[str, str]],
        default_site: str,
        log_queries: bool = False,
    ) -> None:
        super().__init__(endpoint, zones, log_queries=log_queries)
        self.sites: dict[str, CdnSite] = {site.name: site for site in sites}
        if default_site not in self.sites:
            raise ValueError(f"default site {default_site!r} not among sites")
        self.default_site = default_site
        self.content_names: frozenset[Name] = frozenset(
            Name(name) for name in content_names
        )
        #: (family, prefix_len, left-aligned network int) -> site name,
        #: ordered longest prefix first for first-match-wins scans.
        self._map: list[tuple[int, int, int, str]] = []
        for cidr, site_name in site_map:
            if site_name not in self.sites:
                raise ValueError(f"map entry {cidr!r} names unknown site {site_name!r}")
            parsed = _parse_prefix(cidr)
            self._map.append(
                (parsed.family, parsed.source_prefix, parsed.network_bits(), site_name)
            )
        self._map.sort(key=lambda item: -item[1])
        #: Answers per site since the last reset (campaign cells read this).
        self.site_answers: dict[str, int] = {}

    def attach_metrics(self, metrics: "MetricsRegistry") -> None:
        """Have ``metrics`` collect the per-site answer tally."""
        metrics.collect(self, (("cdn.site_answers", LABELED_COUNTER, "site_answers"),))

    def reset_runtime_state(self) -> None:
        super().reset_runtime_state()
        self.site_answers = {}

    # -- mapping -------------------------------------------------------------
    def site_for(
        self, subnet: Optional[ClientSubnet], client: Endpoint
    ) -> tuple[CdnSite, int]:
        """The chosen site and the ECS scope to announce for it.

        Without ECS the resolver's own address picks the site and the
        scope is 0 (the answer will be cached globally — the misdirection
        this module exists to demonstrate).  With ECS, the matched map
        prefix becomes the scope; an unmatched subnet is answered with
        the default site scoped to the full source prefix, so it cannot
        leak to other subnets.
        """
        if subnet is not None and subnet.source_prefix:
            probe = subnet
            announce_unmatched = subnet.source_prefix
        else:
            probe = ClientSubnet.from_ip(client.address, 32)
            announce_unmatched = 0
        bits = 32 if probe.family == 1 else 128
        probe_bits = probe.network_bits()
        for family, prefix, network, site_name in self._map:
            if family != probe.family or prefix > probe.source_prefix:
                continue
            if prefix and (network ^ probe_bits) >> (bits - prefix):
                continue
            scope = prefix if subnet is not None and subnet.source_prefix else 0
            return self.sites[site_name], scope
        return self.sites[self.default_site], announce_unmatched

    # -- query handling --------------------------------------------------------
    def handle_query(self, query: Message, client: Endpoint, now: float) -> Message:
        question = query.question
        if (
            question is None
            or question.qname not in self.content_names
            or question.qtype != RdataType.A
        ):
            return super().handle_query(query, client, now)
        self.queries_received += 1
        if self.query_log is not None:
            self.query_log.entries.append(
                QueryLogEntry(
                    timestamp=now,
                    client_address=client.address,
                    client_asn=client.asn,
                    qname=question.qname,
                    qtype=question.qtype,
                    server=self._endpoint.label,
                )
            )
        if self.faults is not None:
            override = self.faults.intercept_server(self._endpoint.address, query, now)
            if override is not None:
                return override
        subnet: Optional[ClientSubnet] = None
        if query.edns is not None and query.edns.options:
            try:
                subnet = extract_client_subnet(query.edns.options)
            except WireError:
                return query.make_response(rcode=Rcode.FORMERR)
        site, scope = self.site_for(subnet, client)
        self.site_answers[site.name] = self.site_answers.get(site.name, 0) + 1
        response = query.make_response(authoritative=True)
        response.add(
            Section.ANSWER,
            RRset(question.qname, RdataType.A, site.ttl, (A(site.address),)),
        )
        if subnet is not None:
            response.use_edns(options=subnet.with_scope(scope).to_wire())
        return response
