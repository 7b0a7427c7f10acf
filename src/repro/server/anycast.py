"""Anycast authoritative service.

One address, many sites: BGP (here, the latency model's nearest-site rule)
routes each client to its catchment site.  The paper's §6.2 compares a
45-site anycast service (Route53) against unicast servers with long and
short TTLs, finding that caching beats anycast at the median while anycast
helps the tail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.dns.message import Message, Opcode, Rcode
from repro.dns.name import Name
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint
from repro.server.querylog import QueryLog, QueryLogEntry

if TYPE_CHECKING:
    from repro.faults import FaultInjector


class AnycastCluster:
    """Many sites sharing one service address and one zone set."""

    def __init__(
        self,
        service_address: str,
        sites: Iterable[Endpoint],
        latency: LatencyModel,
        zones: Optional[Iterable[Zone]] = None,
        log_queries: bool = True,
    ) -> None:
        self._sites = list(sites)
        if not self._sites:
            raise ValueError("an anycast cluster needs at least one site")
        self._latency = latency
        self._zones: dict[Name, Zone] = {}
        for zone in zones or ():
            self.add_zone(zone)
        self.service_address = service_address
        self._log_queries = log_queries
        self.query_log: Optional[QueryLog] = QueryLog() if log_queries else None
        #: Total queries handled, counted even when the per-entry log is off.
        self.queries_received = 0
        self._catchment_cache: dict[str, Endpoint] = {}
        #: Set by ``Network.attach_faults``; consulted per query.
        self.faults: Optional["FaultInjector"] = None
        #: Set by ``repro.push.attach_publisher``; SUBSCRIBE/UNSUBSCRIBE
        #: frames dispatch to it (NOTIMP when absent).
        self.push: Optional[object] = None

    def reset_runtime_state(self) -> None:
        """Forget everything query traffic produced (worldcache reuse).

        The catchment cache goes too: catchment follows the latency
        model's per-path offsets, which are seed-dependent.
        """
        self.query_log = QueryLog() if self._log_queries else None
        self.queries_received = 0
        self._catchment_cache.clear()
        self.faults = None
        self.push = None

    def __repr__(self) -> str:
        return f"AnycastCluster({self.service_address}, {len(self._sites)} sites)"

    @property
    def endpoint(self) -> Endpoint:
        """The nominal endpoint (first site) — used only as a fallback."""
        return self._sites[0]

    @property
    def sites(self) -> list[Endpoint]:
        return list(self._sites)

    def endpoint_for(self, client: Endpoint, latency: LatencyModel) -> Endpoint:
        """The site BGP would deliver this client's packets to.

        Catchment is stable per client (deterministic base RTT), mirroring
        real anycast where routing changes are rare on measurement
        timescales.
        """
        cached = self._catchment_cache.get(client.address)
        if cached is not None:
            return cached
        site = latency.nearest(client, self._sites)
        self._catchment_cache[client.address] = site
        return site

    def failover_site(
        self, client: Endpoint, latency: LatencyModel, exclude: Iterable[str]
    ) -> Optional[Endpoint]:
        """The best surviving site when some are withdrawn.

        Models BGP reconvergence after a site stops announcing: the
        client's packets land at the nearest *remaining* site.  Returns
        ``None`` when the exclusion covers the whole cluster.  The
        catchment cache is bypassed — failover routing is recomputed
        while the outage lasts and snaps back when it lifts.
        """
        exclusions = list(exclude)
        survivors = [
            site
            for site in self._sites
            if not any(
                site.address == ident or (site.name or "") == ident
                for ident in exclusions
            )
        ]
        if not survivors:
            return None
        return latency.nearest(client, survivors)

    # -- zone management -----------------------------------------------------
    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone

    def best_zone_for(self, qname: Name) -> Optional[Zone]:
        zones = self._zones
        for probe in qname.lineage():
            zone = zones.get(probe)
            if zone is not None:
                return zone
        return None

    # -- query handling ---------------------------------------------------------
    def handle_query(self, query: Message, client: Endpoint, now: float) -> Message:
        self.queries_received += 1
        site = self.endpoint_for(client, self._latency)
        if self.faults is not None:
            # Log the site that actually answered: during a site outage
            # the catchment shifts to the surviving sites.
            down = self.faults.down_sites(self.service_address, now)
            if down and any(
                site.address == ident or (site.name or "") == ident
                for ident in down
            ):
                site = self.failover_site(client, self._latency, down) or site
        if query.question is not None and self.query_log is not None:
            self.query_log.append(
                QueryLogEntry(
                    timestamp=now,
                    client_address=client.address,
                    client_asn=client.asn,
                    qname=query.question.qname,
                    qtype=query.question.qtype,
                    server=site.label,
                )
            )
        if query.question is None:
            return query.make_response(rcode=Rcode.FORMERR)
        if self.faults is not None:
            override = self.faults.intercept_server(
                self.service_address, query, now
            )
            if override is not None:
                return override
        if query.opcode in (Opcode.SUBSCRIBE, Opcode.UNSUBSCRIBE):
            if self.push is None:
                return query.make_response(rcode=Rcode.NOTIMP)
            return self.push.handle_session_message(query, client, now)  # type: ignore[attr-defined]
        zone = self.best_zone_for(query.question.qname)
        if zone is None:
            return query.make_response(rcode=Rcode.REFUSED)
        return zone.respond(query)
