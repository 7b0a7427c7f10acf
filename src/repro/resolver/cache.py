"""The resolver cache.

Entries are RRsets stamped with an expiry time and a *credibility* rank
(RFC 2181 §5.4.1): data from the answer section of an authoritative reply
outranks data from the authority section, which outranks glue from the
additional section.  An arriving RRset only replaces a live cached entry of
equal or higher rank — this single rule is what makes most resolvers
child-centric, because the child zone's authoritative answer (top rank)
overwrites the parent's glue (bottom rank) but not vice versa.

A negative answer (RFC 2308) is the key's entry too: the empty RRset at
one of two ranks below glue, ``NXDOMAIN`` or ``NODATA``, which no positive
read accepts and any data replaces.

Two extensions model behaviours the paper measures:

- **linked expiry** — an entry may be linked to another key (in-bailiwick
  glue linked to its covering NS set); when the link target is gone the
  entry is treated as expired (§4.2: "in-domain servers have tied NS and A
  record cache times in practice"),
- **pinned entries** — never replaced while live, used by parent-centric
  resolvers that keep the parent's data even when child data arrives.

Stale entries are retained (not purged) so serve-stale policies
(draft-ietf-dnsop-serve-stale) can hand them out when all servers are
unreachable.

A key has one :class:`CacheEntry` for as long as it stays cached: a write
that replaces the key's data (a *renewal* — on a short-TTL workload nearly
every write) rewrites that object in place under a new generation, so
whoever holds an entry across a write sees the new data.  That makes a
reference to a live entry a *lease* on the key's hits, with ``generation``
its validity stamp (:meth:`Cache.lease`): an entry object the cache lets
go of is retired — stamped with a generation no write ever issues.  The
cache has no subscribers: whoever derives data from an entry keeps the
entry, its ``generation`` and its ``expires_at``, and checks them before
reuse.

Whether an entry is dead is decided one way, when it is read or
overwritten: expired, or its link target expired, rewritten or gone.  A
read changes only counters.  A bounded cache evicts by one rule, dead or
pinned alike: a write that adds a key past ``max_entries`` drops
the least recently written entry.  One lazy min-heap of
``(expires_at, seq, key, generation)`` records indexes the expiries the
cache acts on: a negative entry's (a write drops it once due; nothing
serves it stale) and, once a refresh-ahead reader has asked
(:meth:`Cache.due_expirations`), a positive entry's; until then a positive
write pushes nothing.  Records are validated when popped (superseded
generations discarded, extended lifetimes re-pushed), never removed in
place.  Records that outlive what they describe (a 2-day referral
superseded by a 60 s answer) are garbage until their own time comes; when
garbage outweighs content the heap is rebuilt from what is cached, so it
never holds more than ``_HEAP_SLACK + 4 * len(entries)`` records.
"""

from __future__ import annotations

import enum
import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.dns.name import Name
from repro.dns.rdtypes import SOA, RdataClass, RdataType
from repro.dns.record import RRset
from repro.metrics.registry import COUNTER, GAUGE

if TYPE_CHECKING:
    from repro.dns.ecs import ClientSubnet
    from repro.metrics import MetricsRegistry

CacheKey = tuple[Name, RdataType, RdataClass]

#: Heap records tolerated beyond four per cached item before the expiry
#: heap is rebuilt; keeps small caches from rebuilding on every write.
_HEAP_SLACK = 64

#: The generation of an entry object the cache no longer holds (flushed,
#: evicted, expired as a negative, replaced by a negative).  Writes
#: stamp positive sequence numbers, so neither a lease on a retired entry
#: nor a link to one ever validates.
_RETIRED = -1


class Credibility(enum.IntEnum):
    """RFC 2181 §5.4.1 trust ranking, low to high, below which two ranks
    mark a cached negative answer (RFC 2308)."""

    NXDOMAIN = -1  # the name does not exist
    NODATA = 0  # the name exists, with no records of this type
    ADDITIONAL = 1  # glue in the additional section of a referral
    AUTHORITY = 2  # NS in the authority section of a referral (no AA)
    NONAUTH_ANSWER = 3  # answer section, AA clear
    AUTH_AUTHORITY = 4  # authority/additional sections of an AA response
    AUTH_ANSWER = 5  # answer section of an AA response


@dataclass
class CacheEntry:
    """One cached RRset: a negative answer's is empty, at a rank below glue."""

    rrset: RRset
    credibility: Credibility
    inserted_at: float
    expires_at: float
    #: Generation stamp; bumped every time the key is (re)written.
    generation: int = 0
    #: (key, entry, generation) this entry's life is tied to — in-bailiwick
    #: glue is linked to the *specific* NS entry it arrived with, so a later
    #: refresh of the NS set does not resurrect old glue.  The target is
    #: held, not looked up: an entry that leaves its key is retired, so
    #: ``entry.generation == generation`` alone says it still holds it.
    linked_to: Optional[tuple[CacheKey, "CacheEntry", int]] = None
    #: Pinned entries are never overwritten while live (parent-centric hold).
    pinned: bool = False
    #: ECS scope prefix length (RFC 7871 §7.3.1): 0 is the ordinary,
    #: global case; a scoped answer is valid only for clients inside the
    #: first ``scope`` bits of the network it was fetched for.
    scope: int = 0
    #: The client subnet (left-aligned integer) that fetched a scoped
    #: answer, kept so hits from *other* covered subnets can be counted
    #: as scope merges.
    source_network: int = 0
    #: Memoized aged view, reused while the whole-second TTL is unchanged.
    _aged: Optional[RRset] = field(default=None, init=False, repr=False, compare=False)

    def remaining_ttl(self, now: float) -> int:
        """Whole seconds of life left, floored at zero."""
        return max(0, int(self.expires_at - now))

    def aged_rrset(self, now: float) -> RRset:
        """The RRset with its TTL decremented by time spent in cache.

        The view is a shared, treat-as-immutable object: repeated hits
        within the same whole second return the same RRset instead of
        rebuilding one per hit.
        """
        ttl = int(self.expires_at - now)  # remaining_ttl(), inlined
        if ttl < 0:
            ttl = 0
        rrset = self.rrset
        if ttl == rrset.ttl:
            return rrset
        view = self._aged
        if view is not None and view.ttl == ttl:
            return view
        # A floor, a pin or a sticky refresh can leave more life than the
        # record's own TTL; only that case needs the validating constructor.
        view = rrset._aged_to(ttl) if ttl < rrset.ttl else rrset.with_ttl(ttl)
        self._aged = view
        return view

    def key(self) -> CacheKey:
        return (self.rrset.name, self.rrset.rdtype, self.rrset.rdclass)


@dataclass
class CacheStats:
    """One cache's counts: the slots its ``cache.*`` metrics collect.

    A response-memo hit is added into ``cache.*`` at registry snapshot,
    not here: the snapshot is the one reader of the totals."""

    hits: int = 0
    misses: int = 0
    expired: int = 0  # misses on a present but dead entry
    stale_hits: int = 0
    inserts: int = 0
    refused_downgrades: int = 0
    evictions: int = 0
    negative_hits: int = 0
    negative_misses: int = 0
    #: Most global / ECS-scoped entries ever held (``None`` before the first).
    size_peak: Optional[int] = None
    ecs_scoped_peak: Optional[int] = None
    scope_merges: int = 0  # scoped hits on an answer another subnet fetched

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Cache:
    """A credibility-aware TTL cache for one resolver (or resolver pool)."""

    def __init__(
        self,
        max_ttl: Optional[int] = None,
        min_ttl: int = 0,
        max_entries: Optional[int] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """``max_ttl``/``min_ttl`` clamp TTLs at insertion time.

        A 21599 s ``max_ttl`` reproduces the capping the paper attributes
        to Google Public DNS (§3.3); a ``min_ttl`` of tens of seconds
        reproduces the floor that limits CDN agility (§6.1).
        ``max_entries`` bounds the cache size: a write that adds a key
        past it drops the least recently written entry, in O(1).  No caller
        under ``src/`` sets one, and ``None`` (the default) means unbounded
        — the paper's experiments never fill real caches.

        ``metrics``: an optional shared registry; it collects every
        attached cache's :attr:`stats` into the world-wide ``cache.*``
        metrics.
        """
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        # Insertion order is the write order: bounded, a renewal re-inserts
        # its key, and :meth:`_evict` pops from the front.
        self._entries: dict[CacheKey, CacheEntry] = {}
        #: Lazy expiry heap: (expires_at, seq, key, generation).  ``seq`` is
        #: unique per record, so ties never compare keys.
        self._expiry_heap: list[tuple[float, int, CacheKey, int]] = []
        #: Cache-wide sequence number: numbers heap records and stamps
        #: entry generations.  Never reused, so a key that is evicted and
        #: re-created can never revive a link to its earlier incarnation.
        self._seq = 0
        #: Heap records :meth:`put` may push before the heap can exceed its
        #: bound: recounted by :meth:`_maintain`, and an underestimate in
        #: between (outside it the cached count only grows).
        self._heap_room = _HEAP_SLACK
        #: Whether positive expiries are indexed too: set by the first
        #: :meth:`due_expirations`, the one reader of their records.
        self._index_positives = False
        self.max_ttl = max_ttl
        self.min_ttl = min_ttl
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: ECS overlay (RFC 7871): per key, the subnet-scoped answers as
        #: ``{(scope, family): {network: entry}}`` — ``network`` being the
        #: answer's covered network as a left-aligned integer — plus a
        #: heap holding exactly one ``(expires_at, scope, family, network)``
        #: record per entry.  Scope-0 answers never land here — they go
        #: through :meth:`put` unchanged — so a resolver that never sends
        #: ECS never touches this dict and its metrics are never
        #: collected, keeping non-ECS metrics output byte-identical.
        self._ecs: dict[CacheKey, tuple[dict, list]] = {}
        self._ecs_count = 0
        if metrics is not None:
            metrics.collect(self.stats, (
                *((f"cache.{slot}", COUNTER, slot) for slot in (
                    "hits", "misses", "expired", "inserts", "refused_downgrades",
                    "evictions", "negative_hits", "negative_misses",
                )),
                ("cache.stale_served", COUNTER, "stale_hits"),
                ("cache.size_peak", GAUGE, "size_peak"),
            ))
            metrics.collect(self.stats, (
                ("cache.ecs_scoped_entries", GAUGE, "ecs_scoped_peak"),
                ("ecs.scope_merges", COUNTER, "scope_merges"),
            ), after="ecs_scoped_peak")

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        for entry in self._entries.values():
            entry.generation = _RETIRED
        self._entries.clear()
        self._ecs.clear()
        self._ecs_count = 0
        self._expiry_heap.clear()
        self._heap_room = _HEAP_SLACK

    # -- insertion -----------------------------------------------------------
    def effective_ttl(self, ttl: int) -> int:
        """The TTL this cache will actually honour for an incoming record."""
        effective = ttl
        if self.max_ttl is not None:
            effective = min(effective, self.max_ttl)
        return max(effective, self.min_ttl)

    def _push(self, key: CacheKey, entry: CacheEntry) -> None:
        if self._index_positives or entry.credibility <= Credibility.NODATA:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._expiry_heap, (entry.expires_at, seq, key, entry.generation))

    def put(
        self,
        rrset: RRset,
        credibility: Credibility,
        now: float,
        linked_to: Optional[CacheKey] = None,
        pin: bool = False,
    ) -> bool:
        """Insert ``rrset``; returns True if the cache changed.

        Replacement rules (modelled on BIND's cache update policy):

        - dead entries (expired or with a broken link) are always replaced;
        - live pinned entries always survive;
        - strictly higher credibility always replaces;
        - equal credibility replaces (refreshes) only at the top
          (authoritative-answer) rank — live glue, referral and
          authority-section data is *not* refreshed by repetitions of
          itself.  This is BIND's trust-ranking behaviour and what makes
          the §4.2 result possible: the old server's answers keep carrying
          its NS + glue, yet resolvers still switch when the originally
          cached NS set expires.
        """
        key: CacheKey = (rrset.name, rrset.rdtype, rrset.rdclass)
        entries = self._entries
        entry = entries.get(key)
        live = entry is not None and now < entry.expires_at
        if live and entry.linked_to is not None:
            # The link rule, spelled out as in get_entry.
            _, target, generation = entry.linked_to
            live = target.generation == generation and now < target.expires_at
        if live:
            refreshable = credibility > entry.credibility or (
                credibility == entry.credibility and credibility >= Credibility.AUTH_ANSWER
            )
            if entry.pinned or not refreshable:
                self.stats.refused_downgrades += 1
                return False
        self._seq = generation = self._seq + 1
        link = None
        if linked_to is not None:
            # Read before the rewrite below: a key linked to itself is
            # tied to the generation it is about to replace.
            target = entries.get(linked_to)
            if target is not None:
                link = (linked_to, target, target.generation)
        ttl = rrset.ttl  # effective_ttl(), inlined: this is the hot write
        if self.max_ttl is not None and ttl > self.max_ttl:
            ttl = self.max_ttl
        if ttl < self.min_ttl:
            ttl = self.min_ttl
        expires_at = now + ttl
        if entry is None:
            entry = entries[key] = CacheEntry(
                rrset, credibility, now, expires_at, generation, link, pin
            )
            if self.max_entries is None and len(entries) > (self.stats.size_peak or 0):
                self.stats.size_peak = len(entries)
        else:
            # A renewal: the key keeps its entry object (and, unbounded,
            # its place in the write order).  The new generation is what
            # kills anything linked to the previous one.
            entry.rrset = rrset
            entry.credibility = credibility
            entry.inserted_at = now
            entry.expires_at = expires_at
            entry.generation = generation
            entry.linked_to = link
            entry.pinned = pin
            entry._aged = None
            if self.max_entries is not None:
                del entries[key]  # re-insert at the recent end
                entries[key] = entry
        heap = self._expiry_heap
        if self._index_positives:
            heapq.heappush(heap, (expires_at, generation, key, generation))
            self._heap_room -= 1
        self.stats.inserts += 1
        if heap and heap[0][0] <= now or self._heap_room < 0:
            self._maintain(now)
        if self.max_entries is not None:
            self._evict()
        return True

    def _maintain(self, now: float) -> None:
        """The upkeep a write ends with once something is due or the heap
        may be over its bound: surface what has expired by ``now``, and
        rebuild the expiry heap once garbage outweighs content."""
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self._surface_expired(now)
        self._heap_room = _HEAP_SLACK + 4 * len(self._entries) - len(heap)
        if self._heap_room < 0:
            self._reindex()

    def _reindex(self) -> None:
        """Rebuild the expiry heap from what is cached: one record per
        entry :meth:`_push` indexes."""
        every = self._index_positives
        heap = self._expiry_heap
        heap[:] = [
            (entry.expires_at, entry.generation, key, entry.generation)
            for key, entry in self._entries.items()
            if every or entry.credibility <= Credibility.NODATA
        ]
        heapq.heapify(heap)
        self._heap_room = _HEAP_SLACK + 4 * len(self._entries) - len(heap)

    def _surface_expired(self, now: float) -> None:
        """Pop every heap record whose time has come by ``now``.

        An expired negative entry, which nothing serves stale, is dropped
        and retired; an expired positive entry stays for serve-stale and
        only loses its record.  Records superseded by a newer generation
        are discarded; records invalidated by an in-place lifetime
        extension are re-pushed at the new expiry.
        """
        heap = self._expiry_heap
        entries = self._entries
        while heap and heap[0][0] <= now:
            _, _, key, generation = heapq.heappop(heap)
            entry = entries.get(key)
            if entry is None or entry.generation != generation:
                continue
            if entry.expires_at > now:
                # Lifetime extended in place (sticky refresh / parent pin):
                # track the new expiry.
                self._push(key, entry)
            elif entry.credibility <= Credibility.NODATA:
                del entries[key]
                entry.generation = _RETIRED

    def _evict(self) -> None:
        """Drop least recently written entries down to ``max_entries``, then
        note the size peak.  The first overflow moves the write order into an
        OrderedDict: its front pops in O(1), a dict's behind the holes earlier pops left."""
        entries = self._entries
        if len(entries) > self.max_entries and type(entries) is dict:
            self._entries = entries = OrderedDict(entries)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)[1].generation = _RETIRED
            self.stats.evictions += 1
            self._heap_room -= 4  # the room :meth:`_maintain` grants per entry
        self.stats.size_peak = max(self.stats.size_peak or 0, len(entries))

    def put_negative(
        self,
        qname: Name,
        qtype: RdataType,
        nxdomain: bool,
        now: float,
        soa: Optional[RRset],
    ) -> None:
        """Cache a negative answer for min(SOA TTL, SOA MINIMUM) seconds in the
        key's slot, retiring what held it; without an SOA, nothing (RFC 2308 §5)."""
        if soa is None or not soa.rdatas:
            return
        soa_rdata = soa.rdatas[0]
        assert isinstance(soa_rdata, SOA)
        ttl = min(soa.ttl, soa_rdata.minimum)
        key: CacheKey = (qname, qtype, RdataClass.IN)
        entries = self._entries
        replaced = entries.pop(key, None)
        if replaced is not None:
            replaced.generation = _RETIRED
        self._seq = generation = self._seq + 1
        expires_at = now + self.effective_ttl(ttl)
        rank = Credibility.NXDOMAIN if nxdomain else Credibility.NODATA
        entries[key] = CacheEntry(RRset(qname, qtype, ttl), rank, now, expires_at, generation)
        heapq.heappush(self._expiry_heap, (expires_at, generation, key, generation))
        if self.max_entries is None and len(entries) > (self.stats.size_peak or 0):
            self.stats.size_peak = len(entries)
        self._maintain(now)
        if self.max_entries is not None:
            self._evict()

    # -- ECS scoped overlay (RFC 7871) ---------------------------------------
    def _prune_scoped(self, tables: dict, heap: list, now: float) -> None:
        """Drop one key's scoped answers that have expired by ``now``."""
        while heap and heap[0][0] <= now:
            _, scope, family, network = heapq.heappop(heap)
            table = tables[scope, family]
            del table[network]
            if not table:
                del tables[scope, family]
            self._ecs_count -= 1

    def put_scoped(
        self, rrset: RRset, subnet: ClientSubnet, scope: int, now: float
    ) -> None:
        """Cache ``rrset`` as valid only for the first ``scope`` bits of
        ``subnet``'s network.

        An existing entry for the same (scope, network) is replaced; other
        scopes and networks coexist under the same key — this is where the
        100–1000x cache-cardinality multiplier lives.  Expired answers
        under the same key are dropped first; other keys keep theirs until
        they are next touched.
        """
        if not 1 <= scope <= subnet.source_prefix:
            raise ValueError(
                f"scope {scope} outside 1..{subnet.source_prefix}; "
                "scope-0 answers belong in put() (global cache)"
            )
        family = subnet.family
        source_network = subnet.network_bits()
        shift = (32 if family == 1 else 128) - scope
        network = source_network >> shift << shift
        key: CacheKey = (rrset.name, rrset.rdtype, rrset.rdclass)
        tables, heap = self._ecs.setdefault(key, ({}, []))
        self._prune_scoped(tables, heap, now)
        table = tables.setdefault((scope, family), {})
        replaced = table.get(network)
        if replaced is None:
            self._ecs_count += 1
        else:
            # Overwriting a live answer (the resolver never does: it only
            # writes after a miss) — take its record out so the heap keeps
            # exactly one per entry.
            heap.remove((replaced.expires_at, scope, family, network))
            heapq.heapify(heap)
        expires_at = now + self.effective_ttl(rrset.ttl)
        table[network] = CacheEntry(
            rrset=rrset,
            credibility=Credibility.AUTH_ANSWER,  # answer data; never contested
            inserted_at=now,
            expires_at=expires_at,
            scope=scope,
            source_network=source_network,
        )
        heapq.heappush(heap, (expires_at, scope, family, network))
        stats = self.stats
        stats.inserts += 1
        stats.ecs_scoped_peak = max(stats.ecs_scoped_peak or 0, self._ecs_count)

    def get_scoped(
        self,
        name: Name,
        rdtype: RdataType,
        subnet: ClientSubnet,
        now: float,
        rdclass: RdataClass = RdataClass.IN,
    ) -> Optional[CacheEntry]:
        """The live scoped answer covering ``subnet``, most specific first:
        one dict probe per prefix length present under the key.

        A miss is *not* counted here: the caller falls through to the
        global cache, whose :meth:`get` does the accounting — so a query
        answered globally still counts exactly one hit or miss.
        """
        overlay = self._ecs.get((name, rdtype, rdclass))
        if overlay is None:
            return None
        tables, heap = overlay
        self._prune_scoped(tables, heap, now)
        family = subnet.family
        query_bits = subnet.network_bits()
        family_bits = 32 if family == 1 else 128
        for (scope, entry_family), table in sorted(tables.items(), reverse=True):
            if entry_family != family or scope > subnet.source_prefix:
                continue
            shift = family_bits - scope
            entry = table.get(query_bits >> shift << shift)
            if entry is None:
                continue
            self.stats.hits += 1
            if entry.source_network != query_bits:
                # A different covered subnet fetched this answer: the scope
                # declared by the authoritative merged two client subnets
                # into one cache entry.
                self.stats.scope_merges += 1
            return entry
        return None

    def scoped_entries(self) -> Iterator[CacheEntry]:
        """Every scoped answer held (dead ones included until their key is
        next touched)."""
        for tables, _ in self._ecs.values():
            for table in tables.values():
                yield from table.values()

    def ecs_scoped_len(self) -> int:
        """How many entries :meth:`scoped_entries` would yield."""
        return self._ecs_count

    # -- lookup ---------------------------------------------------------------
    def peek(
        self, name: Name, rdtype: RdataType, rdclass: RdataClass = RdataClass.IN
    ) -> Optional[CacheEntry]:
        """The raw entry regardless of expiry; no stats, no link checks."""
        return self._entries.get((name, rdtype, rdclass))

    def get(
        self,
        name: Name,
        rdtype: RdataType,
        now: float,
        rdclass: RdataClass = RdataClass.IN,
        min_credibility: Credibility = Credibility.ADDITIONAL,
    ) -> Optional[CacheEntry]:
        """A live entry of at least ``min_credibility``, else ``None``.

        An entry whose link target is expired or missing counts as expired
        itself: the tied NS/A lifetime of §4.2.  (:meth:`get_entry` for
        callers that hold a key.)
        """
        return self.get_entry((name, rdtype, rdclass), now, min_credibility)

    def get_entry(
        self,
        key: CacheKey,
        now: float,
        min_credibility: Credibility = Credibility.ADDITIONAL,
    ) -> Optional[CacheEntry]:
        """The read: :meth:`get` for callers that hold a :data:`CacheKey`.

        One frame per probe — the resolver's form: the liveness and link
        checks are spelled out here, as in :meth:`put`.
        """
        entry = self._entries.get(key)
        if entry is not None:
            live = now < entry.expires_at
            if live and entry.linked_to is not None:
                _, target, generation = entry.linked_to
                live = target.generation == generation and now < target.expires_at
            if live and entry.credibility >= min_credibility:
                self.stats.hits += 1
                return entry
            if not live:
                self.stats.expired += 1
        self.stats.misses += 1
        return None

    def lease(
        self, key: CacheKey, min_credibility: Credibility = Credibility.ADDITIONAL
    ) -> Optional[CacheEntry]:
        """The entry under ``key`` when it alone decides the key's hits.

        Until the entry's ``generation`` moves, a :meth:`get_negative` +
        :meth:`get_entry` pair at any ``now < entry.expires_at`` misses
        the first, returns this entry from the second and changes nothing
        but the counters :meth:`count_leased_hits` adds up — so the holder
        may answer those hits from the reference.  Declined (``None``)
        for a linked entry, whose life hangs on another key.  A negative
        entry ranks below every ``min_credibility``.
        """
        entry = self._entries.get(key)
        if entry is None or entry.linked_to is not None or entry.credibility < min_credibility:
            return None
        return entry

    def count_leased_hits(self, count: int) -> None:
        """Account ``count`` hits answered from leases: what that many
        :meth:`get_negative` misses and :meth:`get_entry` hits count."""
        self.stats.negative_misses += count
        self.stats.hits += count

    def get_stale(
        self, name: Name, rdtype: RdataType, rdclass: RdataClass = RdataClass.IN
    ) -> Optional[CacheEntry]:
        """Any positive entry, live or expired — the serve-stale fallback."""
        entry = self._entries.get((name, rdtype, rdclass))
        if entry is None or entry.credibility <= Credibility.NODATA:
            return None
        self.stats.stale_hits += 1
        return entry

    def get_negative(
        self, qname: Name, qtype: RdataType, now: float
    ) -> Optional[CacheEntry]:
        """The live negative entry for ``(qname, qtype)``, else ``None``."""
        key = (qname, qtype, RdataClass.IN)
        entries = self._entries
        if key in entries:  # a probe that makes no call: most keys hold data
            entry = entries[key]
            if entry.credibility <= Credibility.NODATA and now < entry.expires_at:
                self.stats.negative_hits += 1
                return entry
        self.stats.negative_misses += 1
        return None

    def due_expirations(self, now: float, horizon: float) -> list[tuple[CacheKey, float]]:
        """Live entries expiring within ``horizon`` seconds of ``now``.

        The refresh-ahead expiry feed: a pass over the lazy expiry heap,
        whose first call turns positive indexing on (cached entries
        included).  Records inside the window are popped, validated
        exactly as :meth:`_surface_expired` would (superseded records
        discarded, extended lifetimes re-pushed), and every record that
        still describes its entry is pushed back so later maintenance
        sees the heap unchanged.  Expired and negative entries are *not*
        returned (stale-while-revalidate owns the first, nothing refreshes
        the second); this method has no side effects on cache state.
        """
        if not self._index_positives:
            self._index_positives = True
            self._reindex()
        deadline = now + horizon
        heap = self._expiry_heap
        entries = self._entries
        due: dict[CacheKey, float] = {}  # a refresh can leave a key two records
        keep: list[tuple[float, int, CacheKey, int]] = []
        while heap and heap[0][0] <= deadline:
            record = heapq.heappop(heap)
            expires_at, _, key, generation = record
            entry = entries.get(key)
            if entry is None or entry.generation != generation:
                continue  # superseded or gone: drop the stale record
            if entry.expires_at > expires_at:
                # Lifetime extended in place: track the new expiry.
                self._push(key, entry)
                continue
            keep.append(record)
            if now < expires_at == entry.expires_at and entry.credibility > Credibility.NODATA:
                due[key] = expires_at  # not a record expire_now cut short
        for record in keep:
            heapq.heappush(heap, record)
        return list(due.items())

    # -- maintenance -------------------------------------------------------------
    def refresh_expiry(self, key: CacheKey, now: float) -> None:
        """Reset an entry's lifetime as if freshly inserted (sticky refresh)."""
        entry = self._entries.get(key)
        if entry is None:
            return
        lifetime = entry.expires_at - entry.inserted_at
        entry.inserted_at = now
        entry.expires_at = now + lifetime
        self._push(key, entry)
        self._maintain(now)

    def expire_now(self, key: CacheKey, now: float) -> None:
        """Force-expire an entry (used by tests and cache-flush scenarios)."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.expires_at = now
            self._push(key, entry)
            self._maintain(now)
