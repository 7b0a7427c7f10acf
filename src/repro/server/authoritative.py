"""Authoritative name servers: zone routing and the query path.

:class:`AuthoritativeServer` answers from one endpoint;
:class:`~repro.server.anycast.AnycastCluster` extends it with many sites
behind one service address, and only picks the site that logs the query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.dns.message import Message, Opcode, Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataClass
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint
from repro.server.querylog import QueryLog, QueryLogEntry

if TYPE_CHECKING:
    from repro.faults import FaultInjector

#: Bound on a server's route table.  Qnames arriving through the live
#: frontend are chosen by clients; the table simply resets when full, like
#: a zone's compiled answers.
_ROUTES_MAX = 1024


class _Routes(dict):
    """qname -> the deepest zone whose origin encloses it, or ``None``.

    The answer depends only on the qname and the set of origins, so the
    owner clears the table when that set changes; zone *contents* (pushes,
    renumbering, edits) never touch it.  A miss walks the lineage once.
    """

    __slots__ = ("zones",)

    def __init__(self, zones: dict[Name, Zone]) -> None:
        self.zones = zones

    def __missing__(self, qname: Name) -> Optional[Zone]:
        zones = self.zones
        route = next((zones[p] for p in qname.lineage() if p in zones), None)
        if len(self) >= _ROUTES_MAX:
            self.clear()
        self[qname] = route
        return route


class AuthoritativeServer:
    """Serves one or more zones from a single endpoint.

    When several configured zones enclose a query name, the deepest origin
    wins (a server authoritative for both ``cachetest.net`` and
    ``sub.cachetest.net`` answers ``x.sub.cachetest.net`` from the
    subzone — this matters because the parent zone would instead return a
    referral with glue).
    """

    def __init__(
        self,
        endpoint: Endpoint,
        zones: Optional[Iterable[Zone]] = None,
        log_queries: bool = False,
    ) -> None:
        self._endpoint = endpoint
        #: The one site every client reaches; an anycast cluster has none.
        self.site: Optional[Endpoint] = endpoint
        #: The address clients send to, which fault windows name.
        self.service_address = endpoint.address
        self._zones: dict[Name, Zone] = {}
        self._routes = _Routes(self._zones)
        for zone in zones or ():
            self.add_zone(zone)
        #: Keep one :class:`QueryLogEntry` per query.  Off by default: only
        #: the worlds whose experiments read logs turn it on (a short-TTL
        #: campaign would log two entries per client query).
        self.log_queries = log_queries
        self.query_log: Optional[QueryLog] = QueryLog() if log_queries else None
        #: Total queries handled, counted even when the per-entry log is off.
        self.queries_received = 0
        #: Set by ``Network.attach_faults``; consulted per query.
        self.faults: Optional["FaultInjector"] = None
        #: Set by ``repro.push.attach_publisher``; SUBSCRIBE/UNSUBSCRIBE
        #: frames dispatch to it (NOTIMP when absent).
        self.push: Optional[object] = None

    def reset_runtime_state(self) -> None:
        """Forget everything query traffic produced (worldcache reuse).

        Zones and the endpoint are structural and survive; the query log,
        tally, fault hook, and push publisher return to their
        just-constructed state.
        """
        self.query_log = QueryLog() if self.log_queries else None
        self.queries_received = 0
        self.faults = None
        self.push = None

    def __repr__(self) -> str:
        origins = ",".join(str(origin) for origin in self._zones)
        return f"AuthoritativeServer({self._endpoint}, zones=[{origins}])"

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def endpoint_for(self, client: Endpoint, latency: LatencyModel) -> Endpoint:
        """Unicast servers answer from their single endpoint (the fabric
        reads :attr:`site` instead of asking)."""
        return self._endpoint

    # -- zone management -----------------------------------------------------
    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone
        self._routes.clear()

    def remove_zone(self, origin: Name | str) -> None:
        self._zones.pop(Name(origin), None)
        self._routes.clear()

    def zone(self, origin: Name | str) -> Optional[Zone]:
        return self._zones.get(Name(origin))

    def zones(self) -> list[Zone]:
        return list(self._zones.values())

    def best_zone_for(self, qname: Name) -> Optional[Zone]:
        """The deepest configured zone whose origin encloses ``qname``."""
        return self._routes[qname]

    # -- query handling ---------------------------------------------------------
    def handle_query(
        self, query: Message, client: Endpoint, now: float, site: Optional[Endpoint] = None
    ) -> Message:
        """Answer ``query``; ``site`` is the anycast site that received it
        (logged in place of this server's endpoint)."""
        self.queries_received += 1
        question = query.question
        if question is None:
            return query.make_response(rcode=Rcode.FORMERR)
        if self.query_log is not None:
            self.query_log.entries.append(
                QueryLogEntry(
                    timestamp=now,
                    client_address=client.address,
                    client_asn=client.asn,
                    qname=question.qname,
                    qtype=question.qtype,
                    server=(site or self._endpoint).label,
                )
            )
        if self.faults is not None:
            # The query reached the server and is counted above — exactly
            # like a real SERVFAIL/RRL incident, where the victim's logs
            # fill up while clients see errors.
            override = self.faults.intercept_server(self.service_address, query, now)
            if override is not None:
                return override
        if query.opcode in (Opcode.SUBSCRIBE, Opcode.UNSUBSCRIBE):
            if self.push is None:
                return query.make_response(rcode=Rcode.NOTIMP)
            return self.push.handle_session_message(query, client, now)  # type: ignore[attr-defined]
        zone = self._routes[question.qname]
        if zone is None:
            return query.make_response(rcode=Rcode.REFUSED)
        if query.id or query.flags.rd or question.qclass is not RdataClass.IN:
            return zone.respond(query)
        # Zone.respond's shared answer, read here: a plain query (every
        # resolver's) costs no frame beyond this one.
        return zone.compiled[question.qname, question.qtype]
