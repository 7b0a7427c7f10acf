"""A unicast authoritative name server."""

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
        log_queries: bool = True,
    ) -> None:
        self._endpoint = endpoint
        self._zones: dict[Name, Zone] = {}
        for zone in zones or ():
            self.add_zone(zone)
        self._log_queries = log_queries
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
        self.query_log = QueryLog() if self._log_queries else None
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
        """Unicast servers answer from their single endpoint."""
        return self._endpoint

    # -- zone management -----------------------------------------------------
    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone

    def remove_zone(self, origin: Name | str) -> None:
        self._zones.pop(Name(origin), None)

    def zone(self, origin: Name | str) -> Optional[Zone]:
        return self._zones.get(Name(origin))

    def zones(self) -> list[Zone]:
        return list(self._zones.values())

    def best_zone_for(self, qname: Name) -> Optional[Zone]:
        """The deepest configured zone whose origin encloses ``qname``."""
        zones = self._zones
        for probe in qname.lineage():
            zone = zones.get(probe)
            if zone is not None:
                return zone
        return None

    # -- query handling ---------------------------------------------------------
    def handle_query(self, query: Message, client: Endpoint, now: float) -> Message:
        self.queries_received += 1
        if query.question is not None and self.query_log is not None:
            self.query_log.append(
                QueryLogEntry(
                    timestamp=now,
                    client_address=client.address,
                    client_asn=client.asn,
                    qname=query.question.qname,
                    qtype=query.question.qtype,
                    server=self._endpoint.label,
                )
            )
        if query.question is None:
            return query.make_response(rcode=Rcode.FORMERR)
        if self.faults is not None:
            # The query reached the server and is logged above — exactly
            # like a real SERVFAIL/RRL incident, where the victim's logs
            # fill up while clients see errors.
            override = self.faults.intercept_server(
                self._endpoint.address, query, now
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
