"""Authoritative-side publication: the zone change feed.

A :class:`PushPublisher` attaches to one authoritative service (a
:class:`~repro.server.authoritative.AuthoritativeServer` or an
:class:`~repro.server.anycast.AnycastCluster`) and fans record changes
out to subscribed resolvers:

- SUBSCRIBE/UNSUBSCRIBE frames arrive through the server's normal
  ``handle_query`` path (so they ride the fault injector, the query log
  and the ``auth.queries`` tally like any query); a SUBSCRIBE response
  carries the current RRset, so subscription doubles as reconciliation
  after a reconnect.
- :meth:`publish` is called after a zone mutation (the world applies
  ``record_change`` fault events via :meth:`~repro.dns.zone.Zone.replace`)
  and enqueues one NOTIFY per live subscriber, stamped with a one-way
  delivery time drawn from the fabric's latency model.
- Per-subscriber queues hold **at most one pending frame per record
  key**: a change that lands while an older one is still in flight
  replaces it (counted in ``push.coalesced``) — the subscriber only ever
  needs the newest version.
- Delivery consults the fault injector on the subscriber<->service path
  (the direction fault plans address); a doomed frame resets the
  server-side session, and the subscriber discovers the break on its
  next poll or keepalive and re-subscribes through its seeded backoff.

Determinism: subscriber tables and queues are insertion-ordered dicts,
every RTT draw comes from the fabric's seeded RNG, and every count lands
in the fabric's tally (:class:`~repro.net.transport.FabricTally`), where
a name appears only with its first count — a world that never attaches a
publisher snapshots byte-identically to a pre-push build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dns.message import Message, Opcode, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.dns.record import RRset
from repro.net.topology import Endpoint

if TYPE_CHECKING:
    from repro.net.transport import Network
    from repro.server.authoritative import AuthoritativeServer

#: A subscription key: one record the subscriber wants pushed.
PushKey = tuple[Name, RdataType]

#: A SUBSCRIBE past these is REFUSED: sessions per publisher, keys per
#: session.  Server-side guards, apart from the client's MAX_SUBSCRIPTIONS.
MAX_SUBSCRIBERS = 4096
MAX_SUBSCRIPTIONS_PER_SESSION = 1024


@dataclass
class PendingNotify:
    """One queued NOTIFY: the newest version of a changed record."""

    key: PushKey
    #: The record's current RRset, or ``None`` for a removal (the
    #: subscriber invalidates instead of updating).
    rrset: Optional[RRset]
    #: When the zone changed — the start of the staleness window.
    changed_at: float
    #: When the frame reaches the subscriber (changed_at + one-way delay).
    deliver_at: float


class _SubscriberState:
    """Server-side per-session state for one subscriber."""

    __slots__ = ("endpoint", "keys", "queue", "broken_at")

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        #: Ordered set of subscribed keys (bounded per session).
        self.keys: dict[PushKey, None] = {}
        #: Coalescing queue: at most one pending frame per key.
        self.queue: dict[PushKey, PendingNotify] = {}
        #: Set when a NOTIFY delivery was doomed: the TCP session is
        #: gone server-side; cleared by the next SUBSCRIBE.
        self.broken_at: Optional[float] = None


class PushPublisher:
    """The zone change feed for one authoritative service."""

    def __init__(self, server: "AuthoritativeServer", network: "Network") -> None:
        """``server`` (unicast or anycast) must be registered on
        ``network`` at its service address; ``network`` supplies the
        session path's fate, latency and the metrics registry."""
        self.server = server
        self.network = network
        self.service_address = server.service_address
        self._subs: dict[str, _SubscriberState] = {}
        #: Reverse index: key -> ordered set of subscriber addresses.
        self._index: dict[PushKey, dict[str, None]] = {}

    def __repr__(self) -> str:
        return (
            f"PushPublisher({self.service_address}, "
            f"{len(self._subs)} subscribers)"
        )

    # -- metrics (first use) --------------------------------------------------
    def _record_subscribers(self) -> None:
        tally = self.network.tally
        tally.push_subscribers = max(tally.push_subscribers or 0, len(self._subs))

    # -- introspection --------------------------------------------------------
    def subscriber_count(self) -> int:
        return len(self._subs)

    def reset(self) -> None:
        """Forget all session state (worldcache/baseline reuse)."""
        self._subs.clear()
        self._index.clear()

    # -- session frames -------------------------------------------------------
    def handle_session_message(
        self, query: Message, client: Endpoint, now: float
    ) -> Message:
        """Answer one SUBSCRIBE/UNSUBSCRIBE frame (server dispatch)."""
        if query.question is None:
            return query.make_response(rcode=Rcode.FORMERR)
        key: PushKey = (query.question.qname, query.question.qtype)
        if query.opcode is Opcode.SUBSCRIBE:
            return self._subscribe(key, query, client, now)
        if query.opcode is Opcode.UNSUBSCRIBE:
            self._unsubscribe(key, client.address)
            return query.make_response()
        return query.make_response(rcode=Rcode.NOTIMP)

    def _subscribe(
        self, key: PushKey, query: Message, client: Endpoint, now: float
    ) -> Message:
        state = self._subs.get(client.address)
        if state is None:
            if len(self._subs) >= MAX_SUBSCRIBERS:
                self.network.tally.counts["push.refused_subscribers"] += 1
                return query.make_response(rcode=Rcode.REFUSED)
            state = _SubscriberState(client)
            self._subs[client.address] = state
            self._record_subscribers()
        if state.broken_at is not None:
            # Re-SUBSCRIBE over a fresh connection: frames queued on the
            # dead one are gone; the response below reconciles state.
            state.broken_at = None
            state.queue.clear()
        if key not in state.keys:
            if len(state.keys) >= MAX_SUBSCRIPTIONS_PER_SESSION:
                self.network.tally.counts["push.refused_subscriptions"] += 1
                return query.make_response(rcode=Rcode.REFUSED)
            state.keys[key] = None
            self._index.setdefault(key, {})[client.address] = None
        self.network.tally.counts["push.subscribes"] += 1
        response = query.make_response(authoritative=True)
        rrset = self._current(key)
        if rrset is not None:
            response.add(Section.ANSWER, rrset)
        return response

    def _unsubscribe(self, key: PushKey, address: str) -> None:
        state = self._subs.get(address)
        if state is None:
            return
        state.keys.pop(key, None)
        state.queue.pop(key, None)
        subscribers = self._index.get(key)
        if subscribers is not None:
            subscribers.pop(address, None)
            if not subscribers:
                del self._index[key]
        if not state.keys:
            del self._subs[address]
        self.network.tally.counts["push.unsubscribes"] += 1

    def _current(self, key: PushKey) -> Optional[RRset]:
        zone = self.server.best_zone_for(key[0])
        if zone is None:
            return None
        return zone.get(key[0], key[1])

    # -- publication ----------------------------------------------------------
    def publish(self, name: Name, rdtype: RdataType, now: float) -> int:
        """Fan one record change out; returns NOTIFYs enqueued.

        Call after mutating the zone (``Zone.replace``/``remove``); the
        current RRset is read back from the zone, so a removal publishes
        an invalidation.  Each live subscriber gets the frame at
        ``now + one-way delay``; a doomed transmission resets that
        subscriber's session instead (TCP died under the fault window).
        """
        key: PushKey = (Name(name), rdtype)
        subscribers = self._index.get(key)
        if not subscribers:
            return 0
        rrset = self._current(key)
        network = self.network
        enqueued = 0
        for address in list(subscribers):
            state = self._subs[address]
            if state.broken_at is not None:
                continue
            # The session path's fate, evaluated in the canonical
            # client->server direction fault plans address.
            path = network.session_path(state.endpoint, self.service_address, now)
            if path is None:
                state.broken_at = now
                state.queue.clear()
                self.network.tally.counts["push.session_resets"] += 1
                continue
            _, site, extra = path
            rtt = network.latency.rtt(state.endpoint, site, network._rng) + extra
            if key in state.queue:
                self.network.tally.counts["push.coalesced"] += 1
            state.queue[key] = PendingNotify(
                key=key, rrset=rrset, changed_at=now, deliver_at=now + rtt / 2.0
            )
            self.network.tally.counts["push.notifications"] += 1
            enqueued += 1
        return enqueued

    # -- delivery -------------------------------------------------------------
    def poll(
        self, address: str, now: float
    ) -> tuple[tuple[PendingNotify, ...], Optional[float]]:
        """Frames delivered to ``address`` by ``now``, plus break status.

        Returns ``(frames, broken_at)``: ``broken_at`` is non-``None``
        when the server-side session is gone (a doomed NOTIFY, or server
        state loss) — the subscriber must reconnect and re-SUBSCRIBE.
        The sim models the server->client half of the TCP connection as
        this pull: on the virtual clock the two are equivalent, and it
        keeps every delivery on the subscriber's own deterministic
        schedule.
        """
        state = self._subs.get(address)
        if state is None:
            return (), now
        if state.broken_at is not None:
            return (), state.broken_at
        due = [
            frame for frame in state.queue.values() if frame.deliver_at <= now
        ]
        for frame in due:
            del state.queue[frame.key]
        return tuple(due), None


def attach_publisher(server: "AuthoritativeServer", network: "Network") -> PushPublisher:
    """Build a publisher and hook it into ``server`` as ``server.push``.

    The server's ``handle_query`` dispatches SUBSCRIBE/UNSUBSCRIBE frames
    to it; ``reset_runtime_state`` drops it (scenarios attach per run).
    """
    publisher = PushPublisher(server, network)
    server.push = publisher
    return publisher
