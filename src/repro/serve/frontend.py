"""The live DNS frontend: wire bytes in, wire bytes out.

:class:`DnsFrontend` is transport-agnostic — the UDP and TCP servers in
:mod:`repro.serve.server` hand it raw datagrams and it hands back raw
responses (or ``None`` for "send nothing").  It decodes with the
:mod:`repro.dns` codec, resolves through a :class:`RecursiveResolver`
whose cache ages on the :class:`WallClockBridge` timeline, and applies
the live-path policies a real resolver frontend needs: FORMERR for
garbage, NOTIMP for exotic opcodes, RRL slip/drop, EDNS payload
negotiation, and truncation with TC=1 for oversized UDP answers.
"""

from __future__ import annotations

import math
import struct
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional

from repro.dns.message import Edns, Message, Opcode, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.dns.wire import WireError
from repro.metrics import HOST, Histogram, MetricsRegistry, log_buckets
from repro.metrics.registry import COUNTER, HISTOGRAM, LABELED_COUNTER
from repro.resolver import Credibility, RecursiveResolver, ResolutionResult
from repro.serve.bridge import WallClockBridge
from repro.serve.memo import MemoEntry, ResponseMemo
from repro.server.querylog import QueryLogEntry, QueryLogWriter
from repro.server.rrl import ResponseRateLimiter, RrlVerdict

#: Wall-clock handling latency buckets: 10 µs .. 10 s, four per decade.
LATENCY_BUCKETS_MS = log_buckets(0.01, 10_000.0, per_decade=4)

#: Clients that advertise no EDNS get the classic RFC 1035 ceiling.
_HEADER = struct.Struct(">HHHHHH")

#: ``serve.rcode`` labels, looked up per answered query.
_RCODE_LABELS = {rcode: rcode.name for rcode in Rcode}


def servfail_wire(query_wire: bytes) -> Optional[bytes]:
    """A bare SERVFAIL echoing only the 12-octet header.

    Used on the shed path, where we refuse to spend decode work: the ID
    and the RD bit come straight from the first four octets, nothing else
    is trusted.  Returns ``None`` for datagrams too short to carry a
    header and for responses (QR set), which are never answered.
    """
    if len(query_wire) < 12:
        return None
    query_id, bits = struct.unpack_from(">HH", query_wire)
    if bits & 0x8000:
        return None
    # qr + ra + SERVFAIL, RD copied; question is not echoed (never parsed).
    return _HEADER.pack(query_id, 0x8082 | (bits & 0x0100), 0, 0, 0, 0)


@dataclass
class ServeResult:
    """One handled datagram: the bytes to send (maybe none) and why."""

    wire: Optional[bytes]
    outcome: str  # answered | malformed | dropped | slipped | shed


class DnsFrontend:
    """Decode, resolve, and encode one query at a time.

    Deliberately synchronous: the resolver and cache beneath it are
    single-threaded, so the server runs one frontend per event loop and
    scales across cores with SO_REUSEPORT workers instead of threads.
    """

    def __init__(
        self,
        resolver: RecursiveResolver,
        bridge: WallClockBridge,
        registry: Optional[MetricsRegistry] = None,
        rrl: Optional[ResponseRateLimiter] = None,
        querylog: Optional[QueryLogWriter] = None,
        max_udp_payload: int = 1232,
        server_name: str = "serve",
        memo: Optional[ResponseMemo] = None,
    ) -> None:
        self.resolver = resolver
        self.bridge = bridge
        self.rrl = rrl or ResponseRateLimiter(rate=0)
        self.querylog = querylog
        self.max_udp_payload = max_udp_payload
        self.server_name = server_name
        self.memo = memo
        self.registry = registry = registry if registry is not None else MetricsRegistry()
        # The *server* counts ``shed`` (sheds happen before the frontend
        # sees the datagram), here so one registry tells the whole story.
        self.queries = self.malformed = self.dropped = self.truncated = self.shed = 0
        self.rrl_slipped = self.tcp_queries = self.cache_hits = 0
        self.rcode: defaultdict[str, int] = defaultdict(int)
        self.latency_ms = Histogram("serve.latency_ms", LATENCY_BUCKETS_MS, HOST)
        registry.collect(self, (
            *((f"serve.{slot}", COUNTER, slot) for slot in (
                "queries", "malformed", "dropped", "truncated", "rrl_slipped",
                "tcp_queries", "cache_hits", "memo_hits", "shed",
            )),
            ("serve.rcode", LABELED_COUNTER, "rcode"),
            ("serve.worker_queries", LABELED_COUNTER, "worker_queries"),
            ("serve.latency_ms", HISTOGRAM, "latency_ms"),
        ), HOST)
        # A memo hit counts where the slow path's cache hit would.
        registry.collect(self, (
            ("resolver.client_queries", COUNTER, "memo_hits"),
            ("cache.hits", COUNTER, "memo_positive_hits"),
            ("cache.negative_misses", COUNTER, "memo_positive_hits"),
            ("cache.negative_hits", COUNTER, "memo_negative_hits"),
        ))

    # The memo's counts, read from the current memo (tests swap it in).
    @property
    def memo_hits(self) -> int:
        return 0 if self.memo is None else self.memo.hits

    @property
    def memo_negative_hits(self) -> int:
        return 0 if self.memo is None else self.memo.negative_hits

    @property
    def memo_positive_hits(self) -> int:
        return self.memo_hits - self.memo_negative_hits

    @property
    def worker_queries(self) -> dict[str, int]:
        """Queries labeled by server name, so merged multi-worker
        snapshots keep the flow-steering balance visible."""
        return {self.server_name: self.queries} if self.queries else {}

    @property
    def max_udp_payload(self) -> int:
        """The largest UDP response sent; also the size every OPT advertises."""
        return self._plain_edns.udp_payload

    @max_udp_payload.setter
    def max_udp_payload(self, octets: int) -> None:
        #: The sidecar of every EDNS response that carries no options:
        #: frozen, so one instance serves them all.
        self._plain_edns = Edns(udp_payload=octets)

    # -- entry point -------------------------------------------------------
    def handle_wire(
        self, data: bytes, client: str, via_tcp: bool = False
    ) -> ServeResult:
        """Process one query datagram; returns the response bytes, if any.

        A UDP form whose memo image has lapsed is resolved again straight
        from the image's question, and answered from its bytes when the
        answer kept its shape (:meth:`MemoEntry.reprint`); otherwise the
        query is decoded and answered from that same resolution.
        """
        started = time.monotonic()
        memo = self.memo
        image = result = None
        if memo is not None and not via_tcp and self.rrl.rate <= 0:
            image = memo.take(data[2:])
        if image is not None:
            # As _resolve does, with no subnet: a memoized form never echoed ECS.
            sim_now = self.bridge.now()
            try:
                result = self.resolver.resolve(image.qname, image.qtype, now=sim_now)
            except Exception:
                result = ResolutionResult(Rcode.SERVFAIL)
            wire = image.reprint(data, _RCODE_LABELS[result.rcode], result.answers)
            if wire is not None:
                self._memoize(data, wire, image.qname, image.qtype, result.rcode,
                              result.answers, sim_now, image)
                self._account(False, image.rcode_name, started, sim_now, client,
                              image.qname, image.qtype, result.cache_hit)
                return ServeResult(wire, "answered")
        try:
            query = Message.from_wire(data)
        except (WireError, ValueError):
            self.malformed += 1
            self._account(via_tcp)
            return ServeResult(self._formerr(data), "malformed")
        question = query.question
        if query.flags.qr or question is None:
            # A response (or an empty query) aimed at a server: never
            # answer, or two servers can be made to ping-pong forever.
            self.dropped += 1
            self._account(via_tcp)
            return ServeResult(None, "dropped")

        if image is None:
            sim_now = self.bridge.now()
        asked = (started, sim_now, client, question.qname, question.qtype)
        if not via_tcp and self.rrl.rate > 0:
            verdict = self.rrl.check(client, self.bridge.wall_elapsed())
            if verdict is RrlVerdict.SLIP:
                response = query.make_response(recursion_available=True)
                response.flags = replace(response.flags, tc=True)
                self.rrl_slipped += 1
                self._account(via_tcp, "NOERROR", *asked)
                return ServeResult(response.to_wire(), "slipped")
            if verdict is RrlVerdict.DROP:
                self.dropped += 1
                self._account(via_tcp)
                return ServeResult(None, "dropped")

        if query.opcode != Opcode.QUERY:
            response = query.make_response(
                rcode=Rcode.NOTIMP, recursion_available=True
            )
            wire = self._encode(query, response, via_tcp)
            self._account(via_tcp, "NOTIMP", *asked)
            return ServeResult(wire, "answered")

        response, cache_hit = self._resolve(query, sim_now, result)
        wire = self._encode(query, response, via_tcp)
        if memo is not None and not via_tcp and not response.flags.tc and (
            response.edns is None or not response.edns.options  # no ECS echo
        ):
            self._memoize(data, wire, question.qname, question.qtype, response.rcode,
                          response.answer, sim_now)
        self._account(via_tcp, _RCODE_LABELS[response.rcode], *asked, cache_hit)
        return ServeResult(wire, "answered")

    def fast_answer(self, data: bytes, client: str) -> Optional[bytes]:
        """Answer a repeat UDP query from the response memo, or ``None``.

        The serving loop tries this before queueing a datagram for the
        full pipeline.  An exact hit is one frame: the sim clock
        (:meth:`WallClockBridge.now`), the memo probe and stamp check
        (:meth:`ResponseMemo.get`) and the accounting (:meth:`_account`)
        run inline, then a 2-byte ID splice.  Anything else — an absent
        key, a lapsed image, a TTL past its bound — goes with the probed
        entry to :meth:`ResponseMemo.get`, the whole rule.  An answer is
        the slow path's bytes at this instant, counted as the slow path's
        cache hit would be (the querylog line and ``--predict`` hook too).  A
        datagram shorter than a header misses: every key is a decoded
        query's.  Never used when RRL is armed (the limiter must see every
        client) and never for TCP (framing differs; repeats are rare).
        """
        memo = self.memo
        if memo is None or self.rrl.rate > 0:
            return None
        started = time.monotonic()
        bridge = self.bridge
        sim_now = bridge.sim_start + (bridge.wall_clock() - bridge.wall_epoch) * bridge.time_scale
        if sim_now < bridge.high_water:
            sim_now = bridge.high_water
        bridge.high_water = sim_now
        key = data[2:]
        entry = memo.entries.get(key)
        stamps = entry.stamps if entry is not None and sim_now <= entry.valid_until else None
        for holder, generation, expires_at in stamps or ():
            if (holder.generation != generation or holder.expires_at != expires_at
                    or sim_now >= expires_at):
                stamps = None
                break
        if stamps is not None:
            memo.hits += 1
            if not entry.shape:
                memo.negative_hits += 1
        elif (entry := memo.get(key, sim_now, entry)) is None:
            return None
        track = self.resolver.track_arrival
        if track is not None:
            track(entry.qname, entry.qtype, sim_now)
        self.queries += 1
        self.cache_hits += 1
        self.rcode[entry.rcode_name] += 1
        self.latency_ms.observe((time.monotonic() - started) * 1000.0)
        if self.querylog is not None:
            self.querylog.append(QueryLogEntry(sim_now, client, 0, entry.qname, entry.qtype,
                                               self.server_name))
        return data[:2] + entry.wire[2:]

    def _memoize(self, data: bytes, wire: bytes, qname: Name, qtype: RdataType, rcode: Rcode,
                 answers: list, sim_now: float, image: Optional[MemoEntry] = None) -> None:
        """Memoize an answered UDP response when it is provably reusable;
        ``image`` is the taken image it was reprinted from, if any.

        Callers pass only untruncated responses with no ECS option (a
        scoped answer cached later would take precedence, and no stamp
        sees the scoped overlay).  Only NOERROR/NXDOMAIN qualify, and
        every answer RRset must be of the question's type (not a CNAME
        chain, whose lookup a later write to an alias owner can cut
        short) and backed by a live, link-free cache entry whose
        remaining TTL matches the encoded one (rules out served-stale
        and records that never hit cache).  The validity bound is the
        instant before any encoded TTL ticks down, and each backing
        entry is stamped.  An answer whose one entry is the resolver's
        hit lease is patchable: the memo ages its TTLs past that bound;
        see :mod:`repro.serve.memo` for the contract.
        """
        if rcode is not Rcode.NOERROR and rcode is not Rcode.NXDOMAIN:
            return
        cache = self.resolver.cache
        if answers:
            valid_until = math.inf
            stamps: tuple = ()
            for rrset in answers:
                entry = cache.peek(rrset.name, rrset.rdtype, rrset.rdclass)
                if (
                    rrset.rdtype != qtype
                    or entry is None
                    or entry.linked_to is not None
                    or entry.expires_at <= sim_now
                    or entry.remaining_ttl(sim_now) != rrset.ttl
                ):
                    return
                valid_until = min(valid_until, entry.expires_at - rrset.ttl)
                stamps += ((entry, entry.generation, entry.expires_at),)
        else:
            # A negative answer carries no TTL bytes: reusable while its
            # entry lives, up to just short of the expiry instant, where the
            # slow path would re-resolve (and re-query the authoritative).
            negative = cache.peek(qname, qtype)
            live = negative is not None and sim_now < negative.expires_at
            if not live or negative.credibility > Credibility.NODATA:
                return
            valid_until = math.nextafter(negative.expires_at, -math.inf)
            stamps = ((negative, negative.generation, negative.expires_at),)
        lease = self.resolver.hit_lease(qname, qtype)
        self.memo.put(bytes(data[2:]), wire, valid_until, qname, qtype, _RCODE_LABELS[rcode],
                      stamps, answers, patchable=len(stamps) == 1 and lease is stamps[0][0],
                      image=image)

    def pump(self) -> int:
        """Run due predictive refreshes against the bridge's current time.

        The server calls this from a background loop so hot names are
        re-resolved shortly before expiry even when no query is in
        flight; returns the number of refreshes executed (always 0 for
        a resolver without a predict policy).
        """
        return self.resolver.pump(self.bridge.now())

    # -- pieces ------------------------------------------------------------
    def _resolve(
        self, query: Message, sim_now: float, result: Optional[ResolutionResult] = None
    ) -> tuple[Message, bool]:
        """The response for ``query`` and whether the cache answered it;
        ``result`` is the resolution when the caller has already run it."""
        question = query.question
        assert question is not None
        subnet = None
        if result is None and self.resolver.policy.ecs and query.edns is not None:
            # RFC 7871 §7.1: a resolver accepts ECS from its clients the
            # same way it would derive a subnet from their address.  The
            # gate on policy.ecs keeps ECS-off serving byte-identical.
            from repro.dns.ecs import extract_client_subnet

            try:
                subnet = extract_client_subnet(query.edns.options)
            except WireError:
                formerr = query.make_response(
                    rcode=Rcode.FORMERR, recursion_available=True
                )
                return formerr, False
        if result is None:
            try:
                result = self.resolver.resolve(
                    question.qname, question.qtype, now=sim_now,
                    client_subnet=subnet,
                )
            except Exception:
                # The sim stack raising through the live path must not kill
                # the event loop; a resolver bug becomes a SERVFAIL.
                servfail = query.make_response(
                    rcode=Rcode.SERVFAIL, recursion_available=True
                )
                return servfail, False
        response = query.make_response(rcode=result.rcode, recursion_available=True)
        response.add(Section.ANSWER, *result.answers)
        if subnet is not None:
            # Echo the subnet with the scope the resolution produced
            # (0 when the answer is global); _encode keeps the option.
            response.use_edns(
                options=subnet.with_scope(result.ecs_scope or 0).to_wire()
            )
        return response, result.cache_hit

    def _encode(self, query: Message, response: Message, via_tcp: bool) -> bytes:
        plain = self._plain_edns
        if query.edns is not None:
            if response.edns is None:
                response.edns = plain
            else:  # keep the options _resolve attached (the ECS echo)
                response.use_edns(plain.udp_payload, options=response.edns.options)
        wire = response.to_wire()
        if via_tcp:
            return wire
        limit = min(query.udp_payload_limit, plain.udp_payload)
        if len(wire) <= limit:
            return wire
        # Truncate section by section (additional, authority, answer)
        # until the response fits, then flag TC so the client retries TCP.
        self.truncated += 1
        for section in (Section.ADDITIONAL, Section.AUTHORITY, Section.ANSWER):
            response.section(section).clear()
            wire = response.to_wire()
            if len(wire) <= limit:
                break
        response.flags = replace(response.flags, tc=True)
        return response.to_wire()

    def _formerr(self, data: bytes) -> Optional[bytes]:
        """FORMERR for undecodable queries whose header still parses."""
        if len(data) < 12:
            return None
        query_id, bits = struct.unpack_from(">HH", data)
        if bits & 0x8000:  # malformed *response*: never answer
            return None
        return _HEADER.pack(query_id, 0x8001 | (bits & 0x0100), 0, 0, 0, 0)

    def _account(self, via_tcp: bool, rcode_label: Optional[str] = None, started: float = 0.0,
                 sim_now: float = 0.0, client: str = "", qname: Optional[Name] = None,
                 qtype: Optional[RdataType] = None, cache_hit: bool = False) -> None:
        """The one accounting step per slow-path datagram; a memo hit
        writes the same slots inline (:meth:`fast_answer`).  The caller
        counts the datagram's own event, if it has one (malformed, dropped,
        slipped); ``rcode_label`` is ``None`` when nothing was answered —
        then there is no rcode, latency or querylog line either.
        """
        self.queries += 1
        if via_tcp:
            self.tcp_queries += 1
        if rcode_label is None:
            return
        if cache_hit:
            self.cache_hits += 1
        self.rcode[rcode_label] += 1
        self.latency_ms.observe((time.monotonic() - started) * 1000.0)
        if self.querylog is not None:
            self.querylog.append(QueryLogEntry(sim_now, client, 0, qname, qtype, self.server_name))

    def close(self) -> None:
        if self.querylog is not None:
            self.querylog.close()
