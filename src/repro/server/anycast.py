"""Anycast authoritative service.

One address, many sites: BGP (here, the latency model's nearest-site rule)
routes each client to its catchment site.  The paper's §6.2 compares a
45-site anycast service (Route53) against unicast servers with long and
short TTLs, finding that caching beats anycast at the median while anycast
helps the tail.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dns.message import Message
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint
from repro.server.authoritative import AuthoritativeServer


class AnycastCluster(AuthoritativeServer):
    """Many sites sharing one service address and one zone set.

    Zone routing and the query path are :class:`AuthoritativeServer`'s;
    the cluster only decides which site a client's query lands on (and
    so which site the query log names).
    """

    def __init__(
        self,
        service_address: str,
        sites: Iterable[Endpoint],
        latency: LatencyModel,
        zones: Optional[Iterable[Zone]] = None,
        log_queries: bool = False,
    ) -> None:
        self._sites = list(sites)
        if not self._sites:
            raise ValueError("an anycast cluster needs at least one site")
        # The nominal endpoint (first site) is used only as a fallback.
        super().__init__(self._sites[0], zones, log_queries)
        self.site = None  # the fabric asks endpoint_for, per client
        self.service_address = service_address
        self._latency = latency
        self._catchment_cache: dict[str, Endpoint] = {}

    def reset_runtime_state(self) -> None:
        """Forget everything query traffic produced (worldcache reuse).

        The catchment cache goes too: catchment follows the latency
        model's per-path offsets, which are seed-dependent.
        """
        super().reset_runtime_state()
        self._catchment_cache.clear()

    def __repr__(self) -> str:
        return f"AnycastCluster({self.service_address}, {len(self._sites)} sites)"

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

    # -- query handling ---------------------------------------------------------
    def handle_query(self, query: Message, client: Endpoint, now: float) -> Message:
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
        return super().handle_query(query, client, now, site)
