"""Datagram transport connecting endpoints to servers.

The :class:`Network` is the simulation's fabric: servers register under
their endpoint addresses, and a client exchange is a synchronous call that
returns the response plus the elapsed time (RTT, or timeout-and-retry
accumulations).  A datagram is dropped when its destination is in
:attr:`Network.down` (the paper's unreachable-child scenario, §4.4) or
when an attached fault plan dooms it (loss, outage and storm windows), so
failure-injection experiments are reproducible.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import TYPE_CHECKING, Optional, Protocol

from repro.dns.message import Message
from repro.metrics.registry import COUNTER, GAUGE, HISTOGRAM, LABELED_COUNTER
from repro.metrics.registry import Histogram, log_buckets
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint

if TYPE_CHECKING:
    from repro.faults import FaultInjector
    from repro.metrics import MetricsRegistry

#: BIND-like defaults: resolvers retry a few times with a short timeout.
DEFAULT_TIMEOUT = 2.0
DEFAULT_RETRIES = 2

#: RTT histogram buckets: 0.1 ms .. 10 s, four per decade.  Fixed at
#: module level so every shard's histogram merges exactly.
RTT_BUCKETS_MS = log_buckets(0.1, 10_000.0, per_decade=4)


class NetworkTimeout(Exception):
    """All transmissions of a query were lost or the target is down.

    ``elapsed`` carries the virtual time burned waiting, which callers add
    to their clocks (timeouts dominate tail latency under loss).
    """

    def __init__(self, message: str, elapsed: float) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class Server(Protocol):
    """Anything that can answer DNS queries on the fabric."""

    @property
    def endpoint(self) -> Endpoint: ...

    #: The endpoint that answers every client, or ``None`` when
    #: :meth:`endpoint_for` picks one per client (anycast).
    site: Optional[Endpoint]

    def endpoint_for(self, client: Endpoint, latency: LatencyModel) -> Endpoint:
        """The site answering ``client``; asked only when :attr:`site` is ``None``."""
        ...

    def handle_query(self, query: Message, client: Endpoint, now: float) -> Message: ...


class FabricTally:
    """The fabric's counts for one registry (see :meth:`Network.attach_metrics`)."""

    def __init__(self) -> None:
        self.exchanges = self.timeouts = self.lost_transmissions = self.retries = 0
        self.rtt = Histogram("net.rtt_ms", RTT_BUCKETS_MS)
        #: Queries answered per authoritative site, by :attr:`Endpoint.label`.
        self.site_queries: defaultdict[str, int] = defaultdict(int)
        #: ``net.tcp.*``, ``push.*`` and ``cache.push_*`` counts by metric
        #: name: a name enters snapshots with its first count, even of 0.
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: Push high-water marks and staleness windows, ``None`` until first recorded.
        self.push_subscribers = self.push_sessions = self.push_staleness_s = None


class Network:
    """The datagram fabric: address → server registry plus latency and
    the set of addresses that are down."""

    def __init__(self, latency: Optional[LatencyModel] = None, seed: int = 0) -> None:
        self.latency = latency or LatencyModel(seed=seed)
        #: Addresses that drop everything sent to them — the child
        #: authoritatives taken offline (zurrundedu-offline scenario).
        self.down: set[str] = set()
        self._servers: dict[str, Server] = {}
        self._rng = random.Random(seed ^ 0x7E77)
        self.metrics: Optional["MetricsRegistry"] = None
        self.faults: Optional["FaultInjector"] = None
        self.tally = FabricTally()

    def reset_runtime(self, seed: int) -> None:
        """Return the fabric to its just-built state under ``seed``.

        The campaign worldcache calls this between shards instead of
        rebuilding the world: RNG streams restart exactly where a fresh
        ``Network(seed=seed)`` would, every address comes back up, attached
        metrics/faults are dropped back to ``None`` (shards attach their
        own), and every registered server's runtime state (query tallies,
        logs, fault hooks, catchment caches) is reset.  The server *registry* itself
        is structural and untouched — builders never register servers
        conditionally on the seed.
        """
        self.latency.reseed(seed)
        self.down.clear()
        self._rng = random.Random(seed ^ 0x7E77)
        self.metrics = None
        self.faults = None
        self.tally = FabricTally()
        seen: set[int] = set()
        for server in self._servers.values():
            if id(server) in seen:  # anycast registers sites + service addr
                continue
            seen.add(id(server))
            reset = getattr(server, "reset_runtime_state", None)
            if reset is not None:
                reset()
            else:
                self._wire_server_faults(server)  # at least drop fault hooks

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Count the fabric into a fresh :class:`FabricTally` that
        ``registry`` collects, so a world reused by the next shard never
        counts into this one's registry (an unattached fabric counts into a
        tally nobody reads).  Resolvers built afterwards pick the registry
        up via :attr:`metrics` and wire their caches into the same snapshot."""
        self.metrics = registry
        self.tally = FabricTally()
        registry.collect(self.tally, (
            *((f"net.{slot}", COUNTER, slot) for slot in (
                "exchanges", "timeouts", "lost_transmissions", "retries",
            )),
            ("net.rtt_ms", HISTOGRAM, "rtt"),
            ("auth.queries", LABELED_COUNTER, "site_queries"),
            (None, COUNTER, "counts"),
        ))
        for slot, kind in (
            ("push_subscribers", GAUGE), ("push_sessions", GAUGE), ("push_staleness_s", HISTOGRAM),
        ):
            registry.collect(self.tally, [(slot.replace("_", ".", 1), kind, slot)], after=slot)
        if self.faults is not None:
            self.faults.attach_metrics(registry)

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Wire a fault injector into the fabric and every registered
        server.  Call after :meth:`attach_metrics` so fault events land in
        the same snapshot (either order works; metrics re-attach)."""
        self.faults = injector
        if self.metrics is not None:
            injector.attach_metrics(self.metrics)
        for server in self._servers.values():
            self._wire_server_faults(server)

    def _wire_server_faults(self, server: Server) -> None:
        try:
            server.faults = self.faults  # type: ignore[attr-defined]
        except AttributeError:
            pass  # read-only test doubles just skip server-side faults

    # -- registry -----------------------------------------------------------
    def register(self, server: Server, address: Optional[str] = None) -> None:
        self._servers[address or server.endpoint.address] = server
        if self.faults is not None:
            self._wire_server_faults(server)

    def server_at(self, address: str) -> Optional[Server]:
        return self._servers.get(address)

    # -- exchanges -------------------------------------------------------------
    def exchange(
        self,
        client: Endpoint,
        dst_address: str,
        query: Message,
        now: float,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ) -> tuple[Message, float]:
        """Send ``query`` and wait for the answer.

        Returns ``(response, elapsed_seconds)``.  Each lost transmission
        burns a flat ``timeout``; after ``retries`` extra attempts a
        :class:`NetworkTimeout` carrying the total elapsed time is raised.
        A transmission to an unregistered or :attr:`down` address is lost
        without asking anything else.  The server sees the query at
        ``now + elapsed + rtt/2``.

        An attached :class:`FaultInjector` is consulted per transmission
        (loss/blackhole/outage/storm windows, extra delay) and per
        anycast delivery (down-site rerouting).
        """
        elapsed = 0.0
        server = self._servers.get(dst_address)
        faults = self.faults
        tally = self.tally
        src = client.address
        for attempt in range(1 + retries):
            if attempt > 0:
                tally.retries += 1
            t = now + elapsed
            lost = server is None or dst_address in self.down
            extra_delay = 0.0
            if not lost and faults is not None:
                lost, extra_delay = faults.transmission_fate(src, dst_address, t)
            site: Optional[Endpoint] = None
            if not lost:
                site = server.site or server.endpoint_for(client, self.latency)
                if faults is not None:
                    site = faults.pick_site(
                        server, dst_address, client, self.latency, site, t
                    )
                    lost = site is None
            if lost:
                tally.lost_transmissions += 1
                elapsed += timeout
                continue
            assert site is not None
            rtt = self.latency.rtt(client, site, self._rng) + extra_delay
            arrival = t + rtt / 2.0
            response = server.handle_query(query, client, arrival)
            elapsed += rtt
            tally.exchanges += 1
            tally.rtt.observe(rtt * 1000.0)
            tally.site_queries[site.label] += 1
            if faults is not None:
                faults.note_delivery(src, dst_address, t + rtt)
            return response, elapsed
        tally.timeouts += 1
        raise NetworkTimeout(f"no response from {dst_address}", elapsed)

    # -- sessions -------------------------------------------------------------
    def session_path(
        self, client: Endpoint, dst_address: str, now: float
    ) -> Optional[tuple[Server, Endpoint, float]]:
        """The fate of one session frame from ``client`` to ``dst_address``.

        Returns ``(server, site, extra_delay)``: the server registered at
        the address, the anycast site the frame reaches after rerouting,
        and a ``delay`` window's added RTT.  ``None`` when the destination
        is unregistered or down, or a fault window dooms the frame.  The
        checks run in :meth:`exchange`'s order — down, transmission fate,
        site pick — so the fault injector's RNG advances identically.
        """
        server = self._servers.get(dst_address)
        if server is None or dst_address in self.down:
            return None
        faults = self.faults
        extra = 0.0
        if faults is not None:
            lost, extra = faults.transmission_fate(client.address, dst_address, now)
            if lost:
                return None
        site = server.site or server.endpoint_for(client, self.latency)
        if faults is not None:
            site = faults.pick_site(server, dst_address, client, self.latency, site, now)
            if site is None:
                return None
        return server, site, extra

    def open_session(self, client: Endpoint, dst_address: str) -> "TcpSession":
        """A length-framed TCP session bound to this fabric.

        The session is returned unconnected; call :meth:`TcpSession.connect`
        on the sim clock.  Long-lived connections are what the
        :mod:`repro.push` subscription layer rides.
        """
        return TcpSession(self, client, dst_address)


class SessionBroken(Exception):
    """A framed TCP session died mid-flight.

    Raised when a fault window (blackhole, outage, storm, loss) dooms a
    transmission on an established connection, or when the session is
    used after a break.  ``elapsed`` carries the virtual time burned
    before the break was noticed (the pending frame's timeout).
    """

    def __init__(self, message: str, elapsed: float = 0.0) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class TcpSession:
    """One long-lived RFC 1035 §4.2.2 length-framed TCP connection.

    The datagram fabric treats every query independently; a session
    models the *connection* reuse that pub/sub subscriptions need: one
    handshake up front, then any number of framed exchanges and
    keepalives on the same five-tuple.

    Fault and determinism semantics:

    - RTTs draw from the fabric's latency model and RNG exactly like
      datagram exchanges, so armed runs stay byte-identical serial vs
      ``--parallel N``.
    - Only hard conditions break a session: the destination marked
      down, or an active fault window dooming the transmission
      (``blackhole``/``server_outage``/``upstream_storm``, or an unlucky
      ``loss`` draw — heavy loss storms do reset real TCP connections).
    - A ``delay`` fault window stretches the RTT; it never breaks the
      session.
    - Once broken, every call raises :class:`SessionBroken` until
      :meth:`connect` succeeds again; reconnect pacing is the owner's
      job (a seeded ladder, see ``repro.push``).
    - A doomed frame burns :data:`DEFAULT_TIMEOUT` before the owner
      notices.

    Session activity lands in the fabric tally's ``net.tcp.*`` counts,
    which enter a snapshot with their first count, so runs that never open
    a session snapshot byte-identically to pre-session builds.
    """

    __slots__ = (
        "network", "client", "dst_address", "established", "opened_at", "broken_at",
    )

    def __init__(self, network: Network, client: Endpoint, dst_address: str) -> None:
        self.network = network
        self.client = client
        self.dst_address = dst_address
        self.established = False
        self.opened_at: Optional[float] = None
        self.broken_at: Optional[float] = None

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"TcpSession({self.client.address} -> {self.dst_address}, {state})"

    @property
    def alive(self) -> bool:
        return self.established

    # -- one framed transmission ---------------------------------------------
    def _transmit(
        self, now: float, query: Optional[Message] = None
    ) -> Optional[tuple[float, Optional[Message]]]:
        """Send one frame at ``now``: ``(rtt, response)``, or ``None`` when
        the destination is down or a fault window dooms the transmission.

        The path's fate (:meth:`Network.session_path`), then the RTT draw,
        then the delivery is noted — the order :meth:`Network.exchange`
        uses, so the fabric RNG and the fault recovery clock advance
        identically.  A ``query`` is handed to the server at
        ``now + rtt/2``, *before* the delivery is noted: a ``servfail``
        window first injected by this frame can be closed by this frame's
        own response, as for a datagram.
        """
        network = self.network
        path = network.session_path(self.client, self.dst_address, now)
        if path is None:
            return None
        server, site, extra = path
        rtt = network.latency.rtt(self.client, site, network._rng) + extra
        response = None
        if query is not None:
            response = server.handle_query(query, self.client, now + rtt / 2.0)
            network.tally.site_queries[site.label] += 1
        if network.faults is not None:
            network.faults.note_delivery(self.client.address, self.dst_address, now + rtt)
        return rtt, response

    def _mark_broken(self, t: float) -> None:
        if self.established:
            self.established = False
            self.broken_at = t
            self.network.tally.counts["net.tcp.breaks"] += 1

    # -- lifecycle ------------------------------------------------------------
    def connect(self, now: float) -> float:
        """Open (or reopen) the connection; returns the handshake RTT.

        Raises :class:`NetworkTimeout` (carrying :data:`DEFAULT_TIMEOUT`
        as elapsed) when the handshake is doomed — the caller schedules
        the retry.
        """
        sent = self._transmit(now)
        if sent is None:
            self.established = False
            self.broken_at = now
            raise NetworkTimeout(f"connect to {self.dst_address} failed", DEFAULT_TIMEOUT)
        rtt, _ = sent
        self.established = True
        self.broken_at = None
        self.opened_at = now + rtt
        self.network.tally.counts["net.tcp.opens"] += 1
        return rtt

    def close(self, now: float) -> None:
        """Orderly shutdown; not counted as a break."""
        self.established = False
        self.broken_at = None

    # -- framed traffic --------------------------------------------------------
    def exchange(self, query: Message, now: float) -> tuple[Message, float]:
        """One framed request/response on the established connection.

        Returns ``(response, elapsed_seconds)``.  The server sees the
        frame at ``now + rtt/2`` and its answer is counted under
        ``auth.queries`` like any datagram exchange.  A doomed
        transmission breaks the session and raises :class:`SessionBroken`
        with ``elapsed=DEFAULT_TIMEOUT`` (the reader gave up on the
        half-open connection).
        """
        if not self.established:
            raise SessionBroken(f"session to {self.dst_address} is not connected")
        sent = self._transmit(now, query)
        if sent is None:
            self._mark_broken(now)
            raise SessionBroken(
                f"session to {self.dst_address} broke mid-exchange", DEFAULT_TIMEOUT
            )
        rtt, response = sent
        self.network.tally.counts["net.tcp.exchanges"] += 1
        return response, rtt

    def keepalive(self, now: float) -> float:
        """A liveness probe on the connection; returns its RTT.

        Keepalives are transport-level (no DNS message reaches the zone,
        nothing lands in ``auth.queries``); a doomed probe is how an idle
        subscriber discovers a broken session, raising
        :class:`SessionBroken` with ``elapsed=DEFAULT_TIMEOUT``.
        """
        if not self.established:
            raise SessionBroken(f"session to {self.dst_address} is not connected")
        sent = self._transmit(now)
        if sent is None:
            self._mark_broken(now)
            raise SessionBroken(
                f"session to {self.dst_address} broke on keepalive", DEFAULT_TIMEOUT
            )
        rtt, _ = sent
        self.network.tally.counts["net.tcp.keepalives"] += 1
        return rtt
