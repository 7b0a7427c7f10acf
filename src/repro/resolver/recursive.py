"""The iterative resolution engine.

A :class:`RecursiveResolver` serves stub clients from its cache and walks
the delegation tree (root → TLD → ... → leaf) on misses, caching every
section of every response at the appropriate RFC 2181 credibility.  All of
the paper's measured behaviours emerge from the policy knobs:

- *child-centric* resolvers require answer-rank data to respond, so a
  client asking for ``NS .uy`` drives a query to ``.uy``'s own servers and
  sees the child TTL (300 s);
- *parent-centric* resolvers pin referral data and answer from it, so the
  same client sees the root's glue TTL (172800 s) — and they keep using a
  renumbered server's old address because the pinned parent data never
  yields to the child's (§4.4's OpenDNS case);
- *linked* in-bailiwick glue dies with its NS set, so ~90 % of resolvers
  re-fetch a still-valid A record when the covering NS expires (§4.2);
- *sticky* resolvers refresh infrastructure records instead of re-fetching
  and never notice renumbering at all (§4.2's 2.25 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.dns.message import Message, Rcode
from repro.dns.name import Name, root
from repro.dns.wire import WireError
from repro.dns.rdtypes import RdataClass, RdataType
from repro.dns.record import RRset
from repro.dns.zone import Zone
from repro.metrics.registry import COUNTER, HISTOGRAM, Histogram
from repro.net.topology import Endpoint
from repro.net.transport import Network, NetworkTimeout
from repro.resolver.cache import Cache, CacheEntry, CacheKey, Credibility
from repro.resolver.policy import (
    ECS_SOURCE_PREFIX_V4, ECS_SOURCE_PREFIX_V6, FEED_HORIZON_S, LEAD_FRACTION, MAX_STALE_S,
    MIN_LEAD_S, Centricity, ResolverPolicy,
)

if TYPE_CHECKING:
    from repro.dns.ecs import ClientSubnet
    from repro.predict import PopularityTracker, RefreshScheduler

#: Hard ceilings that bound any resolution, however broken the zone setup.
MAX_REFERRAL_STEPS = 24
MAX_CNAME_HOPS = 8
MAX_SUBRESOLUTION_DEPTH = 4

#: TTL handed to clients for answers served stale, by the serve-stale
#: fallback and by stale-while-revalidate alike (RFC 8767 §5 recommends
#: at most 30 s: small but non-zero, so downstreams do not re-query
#: instantly).
STALE_ANSWER_TTL = 30

#: Bound on the refreshed-generation memo behind ``predict.refresh_hits``.
_MAX_REFRESHED_MEMO = 4096

#: Referral-depth histogram buckets: one bucket per step up to the hard
#: ceiling, so shard merges are exact and depth distributions lossless.
_REFERRAL_DEPTH_BUCKETS = tuple(float(step) for step in range(1, MAX_REFERRAL_STEPS + 1))


@dataclass
class ResolutionResult:
    """What the resolver hands back to a stub client."""

    rcode: Rcode
    answers: list[RRset] = field(default_factory=list)
    #: Upstream time spent, in seconds (0.0 for a clean cache hit).
    elapsed: float = 0.0
    cache_hit: bool = False
    served_stale: bool = False
    #: Addresses of authoritative servers contacted, in order.
    servers_contacted: list[str] = field(default_factory=list)
    #: RFC 7871 scope of the answer (None when ECS was not in play,
    #: 0 when the authoritative declared the answer global).
    ecs_scope: Optional[int] = None


class ResolutionError(Exception):
    """Internal signal that iteration failed; converted to SERVFAIL."""

    def __init__(self, message: str, elapsed: float) -> None:
        super().__init__(message)
        self.elapsed = elapsed


#: One candidate server of a zone cut: (name, cached address or ``None``,
#: whether that address is only glue).
_Server = tuple[Name, Optional[str], bool]


class _QuerySkeletons(dict):
    """(qname, qtype) -> a reusable non-RD query.

    Servers treat queries as read-only (``make_response`` copies the
    fields it echoes), so one skeleton serves every referral step and
    repeat resolution, and a hit is a subscript that calls nothing.  The
    table is bounded: past 1,024 keys a miss builds afresh.
    """

    __slots__ = ()

    def __missing__(self, key: tuple[Name, RdataType]) -> Message:
        query = Message.make_query(key[0], key[1], recursion_desired=False)
        if len(self) < 1024:
            self[key] = query
        return query


def _installed(*hooks: tuple[object, Callable]) -> tuple[Callable, ...]:
    """The hooks of one resolve stage whose feature is armed, in order."""
    return tuple(hook for armed, hook in hooks if armed)


class RecursiveResolver:
    """One recursive resolver instance (a cache plus an iteration engine)."""

    def __init__(
        self,
        endpoint: Endpoint,
        network: Network,
        root_hints: dict[Name, str],
        policy: Optional[ResolverPolicy] = None,
        root_zone: Optional[Zone] = None,
    ) -> None:
        """``root_hints`` maps root server names to addresses.

        ``root_zone`` is only consulted when the policy enables RFC 7706:
        the resolver then serves root-zone data from this local copy and
        sends no queries to the root servers.
        """
        if not root_hints:
            raise ValueError("a resolver needs at least one root hint")
        self.endpoint = endpoint
        #: The resolver's own address: what stubs report, what fault plans name.
        self.address = endpoint.address
        self.network = network
        self.policy = policy = policy or ResolverPolicy.child_centric()
        self.root_hints = dict(root_hints)
        self._hint_servers: list[_Server] = [
            (name, address, False) for name, address in self.root_hints.items()
        ]
        self.root_zone = root_zone
        self._root_mirror = None
        if self.policy.rfc7706_local_root and root_zone is not None:
            # RFC 7706: the local copy is a *transferred snapshot* that
            # refreshes on the SOA schedule, not a live reference.
            from repro.server.axfr import LocalZoneMirror

            self._root_mirror = LocalZoneMirror(root_zone)
        # The fabric's registry (attached via Network.attach_metrics before
        # resolvers are built) collects resolver and cache counts.
        metrics = getattr(network, "metrics", None)
        self.cache = Cache(
            max_ttl=self.policy.ttl_cap,
            min_ttl=self.policy.ttl_floor,
            metrics=metrics,
        )
        self._rotation: dict[Name, int] = {}
        self._query_skeletons = _QuerySkeletons()
        #: ECS context for the resolution in flight (single-threaded): the
        #: truncated client subnet attached to upstream queries, and the
        #: scope the final answer came back with.  Always ``None`` when
        #: the policy leaves ECS off.
        self._ecs_subnet: Optional[ClientSubnet] = None
        self._ecs_scope: Optional[int] = None
        self.queries_sent = self.client_queries = 0
        self.servfail = self.served_stale = self.failovers = self.restarts = 0
        #: Hits on a scheduler-refreshed generation; misses answered stale.
        self.refresh_hits = self.stale_answered = 0
        self.referral_depth = Histogram("resolver.referral_depth", _REFERRAL_DEPTH_BUCKETS)
        if metrics is not None:
            metrics.collect(self, (
                *((f"resolver.{slot}", COUNTER, slot) for slot in (
                    "client_queries", "servfail", "served_stale", "failovers", "restarts",
                )),
                ("resolver.upstream_queries", COUNTER, "queries_sent"),
                ("resolver.referral_depth", HISTOGRAM, "referral_depth"),
            ))

        # Predictive caching (repro.predict).  The scheduler also backs
        # plain on-hit prefetch — unbudgeted, matching Unbound — so a
        # prefetch refresh is never charged to the triggering client.
        predict = policy.predict
        self._tracker: Optional[PopularityTracker] = None
        self._scheduler: Optional[RefreshScheduler] = None
        #: (qname, qtype) -> generation written by a scheduler refresh;
        #: a client hit on that generation counts as a refresh hit.
        self._refreshed: dict[tuple[Name, RdataType], int] = {}
        if predict or policy.prefetch:
            from repro.predict.scheduler import MAX_REFRESH_PER_S, REFRESH_BURST, RefreshScheduler
        if predict:
            from repro.predict.popularity import TRACK_TOP_K, PopularityTracker

            self._tracker = PopularityTracker(TRACK_TOP_K)
            self._scheduler = RefreshScheduler(
                self._scheduled_refresh,
                max_refresh_per_s=MAX_REFRESH_PER_S,
                refresh_burst=REFRESH_BURST,
                metrics=metrics,
            )
        elif policy.prefetch:
            self._scheduler = RefreshScheduler(self._scheduled_refresh, metrics=metrics)
        # Push subscriptions (repro.push): armed policies get a client
        # that subscribes to resolved records at push-capable servers and
        # applies NOTIFY frames on the resolve/pump path.
        self._push = None
        if policy.push:
            from repro.push.subscriber import PushClient

            self._push = PushClient(endpoint, network, self.cache)
        if metrics is not None and self._scheduler is not None:
            metrics.collect(self, (  # only runs with a scheduler snapshot this pair
                ("predict.refresh_hits", COUNTER, "refresh_hits"),
                ("predict.stale_answered", COUNTER, "stale_answered"),
            ))

        # The resolve plan: what the policy and the features it installs
        # ask of :meth:`resolve`, decided here, once.  Every hook tuple is
        # empty for the default child-centric resolver, so a feature that
        # is not installed costs a query nothing.
        #: How credible cached data must be to answer a client directly:
        #: child-centric resolvers follow RFC 2181 and only answer from
        #: answer-rank data; parent-centric ones also hand out referral glue.
        self._min_cred = (
            Credibility.ADDITIONAL
            if policy.answer_from_referral
            else Credibility.NONAUTH_ANSWER
        )
        #: The read for NS sets and server addresses: ``(key, now) -> entry``.
        self._infrastructure = (
            self._sticky_entry if policy.sticky else self.cache.get_entry
        )
        scheduled = self._scheduler is not None
        #: ``hook(qname, qtype, now)`` on every client query, before any probe.
        self._before = _installed(
            (scheduled or self._push is not None, self._pump_before),
            (self._tracker is not None, self._track),
        )
        #: ``hook(qname, qtype, now)`` for a client query answered without
        #: :meth:`resolve` (a response-memo hit): the popularity tracker's
        #: record, so ``--predict`` sees every arrival; ``None`` without a
        #: tracker.  The answerer counts such a query itself and a registry
        #: snapshot adds it into ``resolver.client_queries`` and ``cache.*``:
        #: :attr:`client_queries` and ``cache.stats`` leave it out, and the
        #: snapshot is the one reader of the totals.
        self.track_arrival = self._track if self._tracker is not None else None
        #: ``hook(qname, qtype, now)`` after a query was answered from cache.
        self._on_hit = _installed(
            (scheduled, self._tally_refresh_hit),
            (policy.prefetch, self._maybe_prefetch),
            (predict and not policy.prefetch, self._maybe_refresh_ahead),
        )
        #: ``hook(qname, qtype, now)`` may answer a cache miss before iteration.
        self._on_miss = _installed((predict, self._stale_while_revalidate))
        #: ``hook(qname, qtype, now)`` may answer when iteration failed.
        self._on_failure = _installed((policy.serve_stale, self._serve_stale))
        #: ``hook(qname, qtype, now, result)`` after iteration answered.
        self._on_answer = _installed((self._push is not None, self._subscribe_answer))

    def __repr__(self) -> str:
        return f"RecursiveResolver({self.address}, {self.policy.describe()})"

    # ------------------------------------------------------------------ client API
    def resolve(
        self,
        qname: Name | str,
        qtype: RdataType,
        now: float,
        client_subnet: Optional[ClientSubnet] = None,
    ) -> ResolutionResult:
        """Answer a client query, recursing as needed.

        ``now`` is the virtual time the query arrives; the result's
        ``elapsed`` is the upstream time spent beyond that instant.

        ``client_subnet`` is the querying client's subnet; it is only
        acted on when the policy arms ``ecs`` — the resolver then
        checks the scoped cache overlay first and attaches the truncated
        prefix to upstream queries (RFC 7871).  Scope-0 answers take the
        exact non-ECS path, so an all-global run is byte-identical to one
        that never heard of ECS.
        """
        name = qname if type(qname) is Name else Name(qname)
        faults = self.network.faults  # read per query: plans attach late
        if faults is not None and faults.take_restart(self.address, now):
            self.restart()
        for hook in self._before:
            hook(name, qtype, now)
        self.client_queries += 1
        subnet = None
        if client_subnet is not None:
            subnet = self._upstream_subnet(client_subnet)

        negative = self.cache.get_negative(name, qtype, now)
        if negative is not None:
            rcode = Rcode.NXDOMAIN if negative.credibility is Credibility.NXDOMAIN else Rcode.NOERROR
            return ResolutionResult(rcode=rcode, cache_hit=True)

        if subnet is not None:
            scoped = self.cache.get_scoped(name, qtype, subnet, now)
            if scoped is not None:
                return ResolutionResult(
                    rcode=Rcode.NOERROR,
                    answers=[scoped.aged_rrset(now)],
                    cache_hit=True,
                    ecs_scope=scoped.scope,
                )

        cached = self._answer_from_cache(name, qtype, now)
        if cached is not None:
            for hook in self._on_hit:
                hook(name, qtype, now)
            return cached

        for answer in self._on_miss:
            stale = answer(name, qtype, now)
            if stale is not None:
                return stale

        if subnet is not None:
            self._ecs_subnet = subnet
            self._ecs_scope = None
        try:
            result = self._resolve_with_cnames(name, qtype, now, depth=0)
        except ResolutionError as failure:
            for answer in self._on_failure:
                stale = answer(name, qtype, now)
                if stale is not None:
                    stale.elapsed = failure.elapsed
                    self.served_stale += 1
                    return stale
            self.servfail += 1
            return ResolutionResult(rcode=Rcode.SERVFAIL, elapsed=failure.elapsed)
        finally:
            if subnet is not None:
                self._ecs_subnet = None
        if subnet is not None:
            result.ecs_scope = self._ecs_scope
        for hook in self._on_answer:
            hook(name, qtype, now, result)
        return result

    def hit_lease(self, qname: Name, qtype: RdataType) -> Optional[CacheEntry]:
        """The cache entry that alone decides this resolver's next answers
        for ``(qname, qtype)``, or ``None`` when no entry does.

        While the returned entry's ``generation`` stands and ``now <
        entry.expires_at``, :meth:`resolve` ``(qname, qtype, now)`` would
        be a clean hit on it — NOERROR, the entry's rdatas at TTL
        ``int(expires_at - now)``, nothing elapsed — and would change
        nothing but the counters :meth:`count_leased_hits` adds up, so
        the holder may answer those queries itself.  Declined whenever a
        hit does more than that: a per-query or per-hit hook is installed
        (predict, prefetch, push), a fault plan is attached (it can
        restart this resolver between two queries), or the cache says the
        entry is not self-sufficient (:meth:`Cache.lease`).
        """
        if self._before or self._on_hit or self.network.faults is not None:
            return None
        return self.cache.lease((qname, qtype, RdataClass.IN), self._min_cred)

    def count_leased_hits(self, count: int) -> None:
        """Account ``count`` client queries answered from a hit lease."""
        self.client_queries += count
        self.cache.count_leased_hits(count)

    # ------------------------------------------------------------ installed hooks
    def _pump_before(self, qname: Name, qtype: RdataType, now: float) -> None:
        """Maintenance runs *before* answering: due refreshes execute
        back-dated to their due time, off this client's latency, and
        delivered NOTIFY frames land before the cache probe."""
        self.pump(now)

    def _track(self, qname: Name, qtype: RdataType, now: float) -> None:
        self._tracker.record((qname, qtype))

    def _upstream_subnet(self, client_subnet: ClientSubnet) -> Optional[ClientSubnet]:
        """The truncated client subnet upstream queries carry: ``None``
        unless the policy arms ECS."""
        if not self.policy.ecs:
            return None
        subnet = client_subnet.truncate(
            ECS_SOURCE_PREFIX_V4 if client_subnet.family == 1 else ECS_SOURCE_PREFIX_V6
        )
        return subnet.with_scope(0) if subnet.scope_prefix else subnet

    def _tally_refresh_hit(self, qname: Name, qtype: RdataType, now: float) -> None:
        """Count a client hit on a generation a scheduler refresh wrote."""
        entry = self.cache.peek(qname, qtype) if self._refreshed else None
        if entry is not None and self._refreshed.get((qname, qtype)) == entry.generation:
            self.refresh_hits += 1

    def _subscribe_answer(
        self, qname: Name, qtype: RdataType, now: float, result: ResolutionResult
    ) -> None:
        """Push: subscribe at the server that actually answered, stamped
        at the moment the answer arrived."""
        if result.rcode is Rcode.NOERROR and result.answers and result.servers_contacted:
            self._push.note_answer(
                qname, qtype, result.servers_contacted[-1], now + result.elapsed
            )

    def pump(self, now: float) -> int:
        """Run due background maintenance; returns refreshes plus
        pushed updates applied.

        Called at the start of every :meth:`resolve` and, when serving
        live, from the frontend's background loop — never between a
        client's arrival and its answer.  Feeds the refresh scheduler
        from the cache's expiry heap (hot names expiring soon get a
        refresh job even without a triggering hit), then executes every
        due job under the refresh budget.
        """
        pumped = 0
        if self._push is not None:
            pumped = self._push.pump(now)
        scheduler = self._scheduler
        if scheduler is None:
            return pumped
        if self._tracker is not None:
            for (name, rdtype, rdclass), _ in self.cache.due_expirations(
                now, FEED_HORIZON_S
            ):
                if rdclass is RdataClass.IN:
                    self._maybe_refresh_ahead(name, rdtype, now)
        return pumped + scheduler.pump(now)

    def restart(self) -> None:
        """Simulate a resolver process restart (crash, deploy, reboot).

        All runtime state — the cache and the rotation cursors —
        is lost; the next query walks the tree from the root hints again.
        This is the cold-cache cliff the paper's §6.1 guidance (long TTLs
        as a resilience budget) cannot help with, which is why the fault
        layer models it separately from outages.
        """
        self.cache.clear()
        self._rotation.clear()
        if self._scheduler is not None:
            self._scheduler.clear()
        if self._tracker is not None:
            self._tracker.clear()
        if self._push is not None:
            self._push.restart()
        self._refreshed.clear()
        self.restarts += 1

    def _maybe_prefetch(self, qname: Name, qtype: RdataType, now: float) -> None:
        """Unbound-style prefetch: refresh a hit that is close to expiry.

        Runs out of band — the client's answer has already been served
        from cache; a refresh job due *now* lands in the scheduler and
        executes on the next pump, repopulating the cache so the next
        client never sees the miss latency (and this client never pays
        for the refresh).  This is the renewal strategy of Pappas et al.
        the paper's related work discusses.
        """
        entry = self.cache.peek(qname, qtype)
        if entry is None:
            return
        lifetime = entry.expires_at - entry.inserted_at
        if lifetime <= 0:
            return
        remaining = entry.expires_at - now
        if remaining > LEAD_FRACTION * lifetime:
            return
        self._scheduler.schedule(qname, qtype, due=now, expires_at=entry.expires_at)

    def _maybe_refresh_ahead(self, qname: Name, qtype: RdataType, now: float) -> None:
        """Schedule a refresh for a hot hit, ``lead`` seconds before expiry."""
        if not self._tracker.is_hot((qname, qtype)):
            return
        entry = self.cache.peek(qname, qtype)
        if entry is None:
            return
        lifetime = entry.expires_at - entry.inserted_at
        if lifetime <= 0:
            return
        lead = max(MIN_LEAD_S, LEAD_FRACTION * lifetime)
        self._scheduler.schedule(
            qname,
            qtype,
            due=max(now, entry.expires_at - lead),
            expires_at=entry.expires_at,
        )

    def _scheduled_refresh(self, qname: Name, qtype: RdataType, when: float) -> bool:
        """The scheduler's callback: one out-of-band re-resolution.

        Runs back-dated to the job's due time (every cache and network
        call takes an explicit timestamp, so this is exact).  Successful
        refreshes note the written generation so later client hits on it
        count as ``predict.refresh_hits``.
        """
        try:
            result = self._resolve_with_cnames(qname, qtype, when, depth=1)
        except ResolutionError:
            return False
        if result.rcode != Rcode.NOERROR or not result.answers:
            return False
        entry = self.cache.peek(qname, qtype)
        if entry is not None:
            refreshed = self._refreshed
            refreshed[(qname, qtype)] = entry.generation
            if len(refreshed) > _MAX_REFRESHED_MEMO:
                del refreshed[next(iter(refreshed))]
        return True

    # -------------------------------------------------------------- cache answers
    def _answer_from_cache(
        self, qname: Name, qtype: RdataType, now: float
    ) -> Optional[ResolutionResult]:
        get_entry = self.cache.get_entry
        minimum = self._min_cred
        chain: list[RRset] = []
        current = qname
        for _ in range(MAX_CNAME_HOPS):
            entry = get_entry((current, qtype, RdataClass.IN), now, minimum)
            if entry is not None:
                chain.append(entry.aged_rrset(now))
                return ResolutionResult(rcode=Rcode.NOERROR, answers=chain, cache_hit=True)
            alias = get_entry((current, RdataType.CNAME, RdataClass.IN), now, minimum)
            if alias is None or qtype == RdataType.CNAME:
                return None
            chain.append(alias.aged_rrset(now))
            current = alias.rrset.rdatas[0].target
        return None

    def _stale_while_revalidate(
        self, qname: Name, qtype: RdataType, now: float
    ) -> Optional[ResolutionResult]:
        """RFC 8767: answer a miss from stale data *immediately*.

        Unlike the SERVFAIL-only fallback below — which first walks the
        tree, fails, and only then reaches for stale data, charging the
        whole failed resolution to the client — this path answers in
        zero elapsed time with a capped TTL and queues an asynchronous
        revalidation.  The revalidation's ``put`` replaces the stale
        entry atomically (dead entries always lose to fresh data), so
        later clients see either the old stale answer or the complete
        new one, never a gap.  Data more than :data:`MAX_STALE_S` past
        expiry is not served (RFC 8767 §5's bound); the exact (qname,
        qtype) key only, no stale CNAME chain reassembly.
        """
        entry = self.cache.get_stale(qname, qtype)
        if (
            entry is None
            or entry.credibility < self._min_cred
            or now - entry.expires_at > MAX_STALE_S
        ):
            return None
        self._scheduler.schedule(qname, qtype, due=now, kind="revalidate")
        self.stale_answered += 1
        self.served_stale += 1
        return ResolutionResult(
            rcode=Rcode.NOERROR,
            answers=[entry.rrset.with_ttl(STALE_ANSWER_TTL)],
            served_stale=True,
        )

    def _serve_stale(
        self, qname: Name, qtype: RdataType, now: float
    ) -> Optional[ResolutionResult]:
        """Serve-stale fallback: expired data beats SERVFAIL (§3.1)."""
        entry = self.cache.get_stale(qname, qtype)
        if entry is None:
            return None
        return ResolutionResult(
            rcode=Rcode.NOERROR,
            answers=[entry.rrset.with_ttl(STALE_ANSWER_TTL)],
            served_stale=True,
        )

    # ------------------------------------------------------------------- iteration
    def _resolve_with_cnames(
        self, qname: Name, qtype: RdataType, now: float, depth: int
    ) -> ResolutionResult:
        elapsed = 0.0
        contacted: list[str] = []
        chain: list[RRset] = []
        current = qname
        for _ in range(MAX_CNAME_HOPS):
            rcode, spent, answers, current = self._iterate(
                current, qtype, now + elapsed, depth, contacted
            )
            elapsed += spent
            if rcode != Rcode.NOERROR:
                chain = []
                break
            chain.extend(answers)
            if current is None:
                break
            # The alias target may already be cached (answer rank or, for
            # parent-centric policies, referral rank).
            cached = self._answer_from_cache(current, qtype, now + elapsed)
            if cached is not None:
                chain.extend(cached.answers)
                break
        else:
            raise ResolutionError(f"CNAME chain too long for {qname}", elapsed)
        return ResolutionResult(
            rcode=rcode, answers=chain, elapsed=elapsed, servers_contacted=contacted
        )

    def _iterate(
        self,
        qname: Name,
        qtype: RdataType,
        now: float,
        depth: int,
        contacted: list[str],
    ) -> tuple[Rcode, float, list[RRset], Optional[Name]]:
        """Walk referrals for one owner name until an answer or failure:
        ``(rcode, elapsed, answers, pending CNAME target)``."""
        elapsed = 0.0
        previous_cut_depth = -1
        steps = 0
        try:
            for steps in range(1, MAX_REFERRAL_STEPS + 1):
                cut, servers = self._best_servers(qname, now + elapsed)

                if self._root_mirror is not None and cut.is_root:
                    # RFC 7706: answer from the local root copy, no network.
                    # The copy is a zone-transfer snapshot refreshed on the
                    # SOA schedule, so root changes arrive with transfer lag.
                    response = self._root_mirror.zone(now + elapsed).respond(
                        self._query_skeletons[(qname, qtype)]
                    )
                else:
                    response, query_time = self._query_servers(
                        cut, servers, qname, qtype, now + elapsed, depth, contacted
                    )
                    elapsed += query_time

                if response is None:
                    raise ResolutionError(f"no server for {qname} reachable", elapsed)

                ns_owner = self._cache_response(response, now + elapsed)

                if response.rcode == Rcode.NXDOMAIN:
                    soa = self._soa_from(response)
                    self.cache.put_negative(qname, qtype, True, now + elapsed, soa)
                    return Rcode.NXDOMAIN, elapsed, [], None
                if response.rcode != Rcode.NOERROR:
                    raise ResolutionError(
                        f"{response.rcode.name} from upstream for {qname}", elapsed
                    )

                if response.answer:
                    answers, target = self._answer_chain(
                        response.answer, qname, qtype, now + elapsed
                    )
                    if answers or target is not None:
                        return Rcode.NOERROR, elapsed, answers, target
                elif ns_owner is not None:  # a referral
                    # Parent-centric resolvers treat a referral for the very
                    # name and type being asked as the answer (§3.2: OpenDNS
                    # returns the root's 2-day TTL for ``NS .uy``).
                    if (
                        self.policy.answer_from_referral
                        and qtype == RdataType.NS
                        and ns_owner == qname
                    ):
                        answers, _ = self._answer_chain(
                            response.authority, qname, qtype, now + elapsed
                        )
                        return Rcode.NOERROR, elapsed, answers, None
                    cut_depth = len(ns_owner)
                    if cut_depth <= previous_cut_depth:
                        raise ResolutionError(
                            f"referral loop at {ns_owner} resolving {qname}", elapsed
                        )
                    previous_cut_depth = cut_depth
                    continue

                # Authoritative NODATA: name exists, no records of this type.
                if response.flags.aa:
                    soa = self._soa_from(response)
                    self.cache.put_negative(qname, qtype, False, now + elapsed, soa)
                    return Rcode.NOERROR, elapsed, [], None

                raise ResolutionError(f"lame response for {qname}", elapsed)
            raise ResolutionError(f"too many referrals for {qname}", elapsed)
        finally:
            self.referral_depth.observe(steps)

    # ------------------------------------------------------------- server choice
    def _best_servers(self, qname: Name, now: float) -> tuple[Name, list[_Server]]:
        """The deepest known zone cut for ``qname`` and its servers.

        Returns ``(cut, [(server_name, address_or_None, glue_only), ...])``.
        Falls back to the root hints when nothing useful is cached.
        """
        infrastructure = self._infrastructure
        for ancestor in qname._lineage or qname.lineage():
            ns_entry = infrastructure((ancestor, RdataType.NS, RdataClass.IN), now)
            if ns_entry is None:
                continue
            servers: list[_Server] = []
            # Bootstrap guard: if no address is cached and every server
            # name lives *inside* this cut, the cut cannot resolve its own
            # servers — fall back to an ancestor (whose glue breaks the
            # circularity), as real resolvers do.
            reachable = False
            for rdata in ns_entry.rrset.rdatas:
                target = rdata.target
                # A cached address, and whether it is only glue (what
                # _target_fetch upgrades).
                server: _Server = (target, None, False)
                for rdtype in (RdataType.A, RdataType.AAAA):
                    entry = infrastructure((target, rdtype, RdataClass.IN), now)
                    if entry is not None and entry.rrset.rdatas:
                        glue_only = entry.credibility <= Credibility.ADDITIONAL
                        server = (target, entry.rrset.rdatas[0].address, glue_only)
                        break
                if server[1] is not None or not target.is_subdomain_of(ancestor):
                    reachable = True
                servers.append(server)
            if reachable:
                return ancestor, servers
        return root, self._hint_servers

    def _sticky_entry(self, key: CacheKey, now: float) -> Optional[CacheEntry]:
        """Sticky resolvers refresh expired infrastructure records in place
        instead of re-fetching them (§4.2)."""
        entry = self.cache.get_entry(key, now)
        if entry is None:
            entry = self.cache.get_stale(key[0], key[1])
            if entry is not None:
                self.cache.refresh_expiry(key, now)
                if entry.linked_to is not None:
                    self.cache.refresh_expiry(entry.linked_to[0], now)
        return entry

    def _query_servers(
        self,
        cut: Name,
        servers: list[_Server],
        qname: Name,
        qtype: RdataType,
        now: float,
        depth: int,
        contacted: list[str],
    ) -> tuple[Optional[Message], float]:
        """Try the cut's servers in rotation order; returns (response, time).

        Rotation: "resolvers tend to rotate between authoritative servers"
        (§3.4, [37]).  Servers with known addresses are tried before those
        needing a sub-resolution, mirroring real resolvers' preference for
        glue.  Sibling-NS failover: a timeout, a lame response, or a truncated
        answer moves on to the next server of the cut (counted in
        ``resolver.failovers`` when another candidate exists) — the
        graceful-degradation path that keeps multi-NS zones answering
        through a single-server outage.
        """
        elapsed = 0.0
        subnet = self._ecs_subnet
        if subnet is not None:
            # ECS queries are built fresh, never memoized: the option
            # bytes vary by client subnet.
            query = Message.make_query(qname, qtype, recursion_desired=False)
            query.use_edns(options=subnet.to_wire())
        else:
            query = self._query_skeletons[(qname, qtype)]
        for server in servers:
            if server[1] is None:  # rare: a cut usually arrives with its glue
                servers = sorted(servers, key=lambda item: item[1] is None)
                break
        count = len(servers)
        if count > 1:
            start = self._rotation.get(cut, 0) % count
            self._rotation[cut] = start + 1
            servers = servers[start:] + servers[:start]
        last = count - 1
        for index, (server_name, address, glue_only) in enumerate(servers):
            if address is None:
                address, lookup_time = self._resolve_server_address(
                    server_name, cut, now + elapsed, depth
                )
                elapsed += lookup_time
                if address is None:
                    continue
            try:
                response, exchange_time = self.network.exchange(
                    self.endpoint, address, query, now + elapsed
                )
            except NetworkTimeout as timeout:
                elapsed += timeout.elapsed
                if index < last:
                    self.failovers += 1
                continue
            elapsed += exchange_time
            contacted.append(address)
            self.queries_sent += 1
            if (
                response.rcode in (Rcode.REFUSED, Rcode.NOTIMP, Rcode.FORMERR)
                or response.flags.tc
            ):
                # A lame server (not actually serving the zone), or a
                # truncated answer (e.g. an RRL slip; we model no TCP
                # retry): try a sibling, as real resolvers do.
                if index < last:
                    self.failovers += 1
                continue
            if glue_only and depth == 0 and self.policy.target_fetch:
                self._target_fetch(cut, server_name, address, now + elapsed)
            return response, elapsed
        return None, elapsed

    def _target_fetch(
        self, cut: Name, server_name: Name, address: str, now: float
    ) -> None:
        """Upgrade a glue address to child-authoritative data (§3.4).

        Target-fetching resolvers send an explicit A query for the server
        name to the child zone itself; the answer (child TTL, answer rank)
        replaces the parent's glue.  Runs out of band: the client's latency
        is unaffected, but the query lands in the authoritative's log —
        these are exactly the queries the paper's passive .nl study counts.
        """
        if not server_name.is_subdomain_of(cut):
            return
        fetch = self._query_skeletons[(server_name, RdataType.A)]
        try:
            response, _ = self.network.exchange(self.endpoint, address, fetch, now)
        except NetworkTimeout:
            return
        self.queries_sent += 1
        if not (response.flags.aa and response.answer):
            return
        for rrset in response.answer:
            # The upgraded address is still an in-bailiwick server address:
            # keep it tied to the covering NS set so it expires with it
            # (§4.2), unless this resolver trusts addresses independently.
            # The server name's own bailiwick was tested above.
            linked: Optional[CacheKey] = None
            if self.policy.link_inbailiwick_glue and (
                rrset.name is server_name or rrset.name.is_subdomain_of(cut)
            ):
                linked = (cut, RdataType.NS, RdataClass.IN)
            self.cache.put(rrset, Credibility.AUTH_ANSWER, now, linked_to=linked)

    def _resolve_server_address(
        self, server_name: Name, cut: Name, now: float, depth: int
    ) -> tuple[Optional[str], float]:
        """Resolve an out-of-bailiwick server's address via sub-resolution."""
        if depth >= MAX_SUBRESOLUTION_DEPTH:
            return None, 0.0
        try:
            result = self._resolve_with_cnames(server_name, RdataType.A, now, depth + 1)
        except ResolutionError as failure:
            return None, failure.elapsed
        if result.rcode != Rcode.NOERROR or not result.answers:
            return None, result.elapsed
        final = result.answers[-1]
        if not final.rdatas:
            return None, result.elapsed
        if self.policy.centricity is Centricity.PARENT:
            self._pin_server_address(server_name, cut, now + result.elapsed)
        return str(final.rdatas[0]), result.elapsed

    def _pin_server_address(self, server_name: Name, cut: Name, now: float) -> None:
        """Parent-centric address hold (§4.4's OpenDNS behaviour).

        The paper observes OpenDNS trusting the parent's NS for its full
        2-day TTL and *not* re-fetching the server's (renumbered) address.
        We model that by pinning the learned address and stretching its
        life to the pinned NS entry's expiry.
        """
        peek = self.cache.peek
        ns_entry = peek(cut, RdataType.NS)
        entry = peek(server_name, RdataType.A) or peek(server_name, RdataType.AAAA)
        if ns_entry is None or entry is None:
            return
        entry.pinned = True
        entry.expires_at = max(entry.expires_at, ns_entry.expires_at)

    # ------------------------------------------------------------ response intake
    def _cache_response(self, response: Message, now: float) -> Optional[Name]:
        """Cache every section at its credibility; returns the NS owner seen."""
        authoritative = response.flags.aa
        parent_side = not authoritative and self.policy.centricity is Centricity.PARENT
        if authoritative:
            answer_rank = Credibility.AUTH_ANSWER
            authority_rank = glue_rank = Credibility.AUTH_AUTHORITY
        else:
            answer_rank = Credibility.NONAUTH_ANSWER
            authority_rank, glue_rank = Credibility.AUTHORITY, Credibility.ADDITIONAL

        # RFC 7871 §7.3.1: only ANSWER records are subnet-scoped; the
        # authority and additional sections below stay global.  A server
        # echoing scope 0 (or no ECS at all) takes the unchanged path.
        subnet = self._ecs_subnet
        scope = 0
        if subnet is not None and response.edns is not None and response.edns.options:
            from repro.dns.ecs import extract_client_subnet

            try:
                echo = extract_client_subnet(response.edns.options)
            except WireError:
                echo = None
            if echo is not None and echo.family == subnet.family:
                scope = min(echo.scope_prefix, subnet.source_prefix)

        for rrset in response.answer:
            if scope:
                self.cache.put_scoped(rrset, subnet, scope, now)
                self._ecs_scope = scope
            else:
                self.cache.put(rrset, answer_rank, now)
                if subnet is not None:
                    self._ecs_scope = 0

        ns_owner: Optional[Name] = None
        for rrset in response.authority:
            if rrset.rdtype == RdataType.NS and ns_owner is None:
                ns_owner = rrset.name
            self.cache.put(rrset, authority_rank, now, pin=parent_side)

        for rrset in response.additional:
            if rrset.rdtype not in (RdataType.A, RdataType.AAAA):
                continue
            linked: Optional[CacheKey] = None
            if (
                self.policy.link_inbailiwick_glue
                and ns_owner is not None
                and rrset.name.is_subdomain_of(ns_owner)  # in bailiwick
            ):
                linked = (ns_owner, RdataType.NS, RdataClass.IN)
            self.cache.put(rrset, glue_rank, now, linked_to=linked, pin=parent_side)
        return ns_owner

    def _answer_chain(
        self, section: list[RRset], qname: Name, qtype: RdataType, now: float
    ) -> tuple[list[RRset], Optional[Name]]:
        """The in-response chain for ``qname`` as the client sees it, plus a
        pending CNAME target: one scan of ``section`` per hop.  An RRset
        the cache holds with the same data is read back through its entry
        (caps, floors, remaining lifetime); any other gets the TTL clamp."""
        cache = self.cache
        answers: list[RRset] = []
        current = qname
        for _ in range(MAX_CNAME_HOPS):
            found = alias = None
            for rrset in section:
                # Identity first: interned names skip Name.__eq__.
                if rrset.rdclass != RdataClass.IN or not (
                    rrset.name is current or rrset.name == current
                ):
                    continue
                if rrset.rdtype == qtype:
                    found = rrset
                    break
                if alias is None and rrset.rdtype == RdataType.CNAME:
                    alias = rrset
            if found is None and (alias is None or qtype == RdataType.CNAME):
                break
            rrset = alias if found is None else found
            entry = cache.peek(rrset.name, rrset.rdtype)
            if entry is not None and entry.rrset.rdatas == rrset.rdatas:
                answers.append(entry.aged_rrset(now))
            else:
                answers.append(rrset.with_ttl(cache.effective_ttl(rrset.ttl)))
            if found is not None:
                return answers, None
            current = alias.rdatas[0].target
        return answers, (current if answers else None)

    def _soa_from(self, response: Message) -> Optional[RRset]:
        for rrset in response.authority:
            if rrset.rdtype == RdataType.SOA:
                return rrset
        return None
