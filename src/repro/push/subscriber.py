"""Resolver-side push subscriptions.

A :class:`PushClient` rides inside one
:class:`~repro.resolver.recursive.RecursiveResolver` (created when the
policy arms ``push``):

- after a successful resolution the resolver calls :meth:`note_answer`;
  if the answering authoritative has a publisher attached, the client
  opens (or reuses) a long-lived :class:`~repro.net.transport.TcpSession`
  and SUBSCRIBEs to the record — the SUBSCRIBE response carries the
  current RRset, which is applied immediately, so subscription doubles
  as reconciliation;
- :meth:`pump` (called from the resolver's own pump, ahead of every
  client answer) drains delivered NOTIFY frames into the cache —
  updated in place, or force-expired on a removal — observes each record's
  staleness window (``push.staleness_s``: apply time minus change time),
  sends keepalives on idle sessions, and walks broken sessions through
  a seeded reconnect ladder (the ``RECONNECT_*`` constants, RNG
  derived from the resolver's address so serial and ``--parallel N``
  runs draw identically);
- a reconnect re-SUBSCRIBEs every key, restoring freshness after the
  outage that broke the session (the DDoS recovery path).

Every count lands in the fabric's tally, where a name appears only with
its first count, so resolvers without push snapshot byte-identically to
pre-push builds.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Optional

from repro.dns.message import Message, Opcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataClass, RdataType
from repro.dns.record import RRset
from repro.metrics.registry import Histogram, log_buckets
from repro.net.transport import NetworkTimeout, SessionBroken, TcpSession
from repro.push.publisher import PushKey, PushPublisher
from repro.resolver.cache import Credibility

if TYPE_CHECKING:
    from repro.net.topology import Endpoint
    from repro.net.transport import Network
    from repro.resolver.cache import Cache

#: Staleness-window buckets: 10 ms .. ~28 h, two per decade.  Fixed at
#: module level so shard histograms merge exactly.
STALENESS_BUCKETS_S = log_buckets(0.01, 100_000.0, per_decade=2)

#: Idle-session probe interval: keepalives are how a subscriber notices a
#: dead session when no NOTIFYs are flowing.
KEEPALIVE_INTERVAL_S = 30.0
#: Client-side bound on the subscription table.
MAX_SUBSCRIPTIONS = 1024
#: Reconnect schedule after a session break: 1 s doubling per attempt,
#: plateauing after six (the subscriber never gives up), with 10 % jitter
#: drawn from the subscriber's own address-seeded RNG.
RECONNECT_BASE_S = 1.0
RECONNECT_FACTOR = 2.0
RECONNECT_RUNGS = 6
RECONNECT_JITTER = 0.1


def derive_client_seed(address: str) -> int:
    """The reconnect-jitter RNG seed for one subscriber.

    A pure function of the resolver's address (keyed hash, same
    construction as :func:`repro.faults.plan.derive_fault_seed`), so the
    jitter stream survives serial/parallel splits and world rebuilds.
    """
    digest = hashlib.blake2b(
        address.encode("ascii"), digest_size=8, person=b"repro.push"
    ).digest()
    return int.from_bytes(digest, "big")


class _Channel:
    """Client-side state for one authoritative's session."""

    __slots__ = (
        "server_address", "session", "keys", "next_keepalive", "attempt",
        "retry_at",
    )

    def __init__(self, server_address: str, session: TcpSession) -> None:
        self.server_address = server_address
        self.session = session
        #: Ordered set of subscribed keys.
        self.keys: dict[PushKey, None] = {}
        self.next_keepalive = 0.0
        #: Reconnect ladder position; reset on a successful connect.
        self.attempt = 0
        #: Next reconnect try; 0 means "immediately".
        self.retry_at = 0.0


class PushClient:
    """One resolver's subscription sessions and NOTIFY intake."""

    def __init__(
        self,
        endpoint: "Endpoint",
        network: "Network",
        cache: "Cache",
    ) -> None:
        self.endpoint = endpoint
        self.network = network
        self.cache = cache
        self._rng = random.Random(derive_client_seed(endpoint.address))
        self._channels: dict[str, _Channel] = {}

    def __repr__(self) -> str:
        return (
            f"PushClient({self.endpoint.address}, "
            f"{len(self._channels)} sessions, "
            f"{self.subscription_count()} subscriptions)"
        )

    # -- metrics (first use) --------------------------------------------------
    def _observe_staleness(self, seconds: float) -> None:
        tally = self.network.tally
        if tally.push_staleness_s is None:
            tally.push_staleness_s = Histogram("push.staleness_s", STALENESS_BUCKETS_S)
        tally.push_staleness_s.observe(seconds)

    def _record_sessions(self) -> None:
        tally = self.network.tally
        tally.push_sessions = max(tally.push_sessions or 0, self.alive_session_count())

    # -- introspection --------------------------------------------------------
    def subscription_count(self) -> int:
        return sum(len(channel.keys) for channel in self._channels.values())

    def session_count(self) -> int:
        return len(self._channels)

    def alive_session_count(self) -> int:
        return sum(
            1 for channel in self._channels.values() if channel.session.alive
        )

    def restart(self) -> None:
        """Drop all sessions and subscriptions (resolver restart).

        Subscriptions rebuild organically: the restarted resolver's next
        resolutions re-subscribe via :meth:`note_answer`.
        """
        self._channels.clear()

    # -- subscription intake --------------------------------------------------
    def note_answer(
        self, name: Name, rdtype: RdataType, server_address: str, now: float
    ) -> None:
        """Subscribe to a just-resolved record, if the server can push.

        Called by the resolver after a successful upstream resolution
        with the answering authoritative's address.  No-op when that
        server has no publisher, the key is already subscribed, or the
        client-side subscription table is full.
        """
        publisher = self._publisher(server_address)
        if publisher is None:
            return
        key: PushKey = (name, rdtype)
        channel = self._channels.get(server_address)
        if channel is not None and key in channel.keys:
            return
        if self.subscription_count() >= MAX_SUBSCRIPTIONS:
            return
        if channel is None:
            channel = _Channel(
                server_address,
                self.network.open_session(self.endpoint, server_address),
            )
            self._channels[server_address] = channel
        if not channel.session.alive:
            if now < channel.retry_at:
                return
            if not self._connect(channel, now):
                return
        self._subscribe(channel, key, now)

    def _publisher(self, server_address: str) -> Optional[PushPublisher]:
        server = self.network.server_at(server_address)
        if server is None:
            return None
        return getattr(server, "push", None)

    # -- session lifecycle ----------------------------------------------------
    def _connect(self, channel: _Channel, now: float) -> bool:
        try:
            channel.session.connect(now)
        except NetworkTimeout:
            self._schedule_retry(channel, now)
            return False
        channel.attempt = 0
        channel.retry_at = 0.0
        channel.next_keepalive = now + KEEPALIVE_INTERVAL_S
        self._record_sessions()
        return True

    def _schedule_retry(self, channel: _Channel, now: float) -> None:
        rung = min(channel.attempt, RECONNECT_RUNGS)
        wait = RECONNECT_BASE_S * RECONNECT_FACTOR**rung
        wait *= 1.0 + RECONNECT_JITTER * (self._rng.random() * 2.0 - 1.0)
        channel.attempt += 1
        channel.retry_at = now + wait

    def _on_break(self, channel: _Channel, now: float) -> None:
        self.network.tally.counts["push.session_breaks"] += 1
        self._record_sessions()
        self._schedule_retry(channel, now)

    def _reconnect(self, channel: _Channel, now: float) -> None:
        if not self._connect(channel, now):
            return
        self.network.tally.counts["push.reconnects"] += 1
        # Re-SUBSCRIBE everything: the responses reconcile the cache
        # (each carries the record's current RRset), which is what bounds
        # post-outage staleness to the reconnect backoff.
        for key in list(channel.keys):
            if not self._subscribe(channel, key, now):
                break

    def _subscribe(self, channel: _Channel, key: PushKey, now: float) -> bool:
        query = Message.make_query(key[0], key[1], recursion_desired=False)
        query.opcode = Opcode.SUBSCRIBE
        try:
            response, elapsed = channel.session.exchange(query, now)
        except SessionBroken:
            self._on_break(channel, now)
            return False
        channel.keys[key] = None
        channel.next_keepalive = now + KEEPALIVE_INTERVAL_S
        rrset = response.answer_rrset()
        if rrset is not None:
            self._apply(key, rrset, now + elapsed)
        return True

    def _apply(self, key: PushKey, rrset: Optional[RRset], now: float) -> None:
        """Land one pushed change in the cache.

        With an RRset in hand the data is the authoritative answer by
        construction, so it is written at :attr:`Credibility.AUTH_ANSWER`
        and replaces any live unpinned entry; the lifetime restarts at the
        pushed TTL, exactly as if the resolver had refetched at the instant
        of the change.  A removal force-expires the cached entry so the
        next query refetches; serve-stale policies may still hand the old
        value out, exactly as they would for a naturally-expired record.
        Both counters appear with the first pushed change, whichever way
        it lands.
        """
        updated = invalidated = 0
        if rrset is not None:
            updated = int(self.cache.put(rrset, Credibility.AUTH_ANSWER, now))
        elif self.cache.peek(*key) is not None:
            self.cache.expire_now((*key, RdataClass.IN), now)
            invalidated = 1
        self.network.tally.counts["cache.push_updates"] += updated
        self.network.tally.counts["cache.push_invalidations"] += invalidated

    # -- the pump -------------------------------------------------------------
    def pump(self, now: float) -> int:
        """Run due session maintenance; returns NOTIFYs applied.

        Per channel, in deterministic (insertion) order: reconnect broken
        sessions whose backoff has elapsed, drain delivered NOTIFY frames
        into the cache, then keepalive idle sessions.
        """
        applied = 0
        for channel in self._channels.values():
            if not channel.session.alive:
                if channel.keys and now >= channel.retry_at:
                    self._reconnect(channel, now)
                continue
            applied += self._drain(channel, now)
            if channel.session.alive and now >= channel.next_keepalive:
                try:
                    channel.session.keepalive(now)
                    channel.next_keepalive = now + KEEPALIVE_INTERVAL_S
                    self.network.tally.counts["push.keepalives"] += 1
                except SessionBroken:
                    self._on_break(channel, now)
        return applied

    def _drain(self, channel: _Channel, now: float) -> int:
        publisher = self._publisher(channel.server_address)
        if publisher is None:
            return 0
        frames, broken_at = publisher.poll(self.endpoint.address, now)
        if broken_at is not None:
            # The server-side half died (a doomed NOTIFY reset it); our
            # session object learns on this poll.
            channel.session.close(now)
            self._on_break(channel, now)
            return 0
        applied = 0
        for frame in frames:
            self._apply(frame.key, frame.rrset, now)
            self._observe_staleness(now - frame.changed_at)
            applied += 1
        if applied:
            self.network.tally.counts["push.applied"] += applied
        return applied
