"""The cache specification, implemented the obvious slow way — the reference.

:class:`ScanReferenceCache` has no expiry heap, no in-place renewal and no
per-prefix-length tables: every lookup re-derives liveness by direct
inspection, every write ends by scanning for expired negatives and (when
bounded) dropping the least recently written entries, and the
refresh-ahead feed is a sorted scan.  A read changes only counters.  No
auxiliary structure exists that could drift out of sync, which is what
makes it a trustworthy oracle for the heap-based
:class:`~repro.resolver.cache.Cache`.

It answers everything :class:`~repro.resolver.recursive.RecursiveResolver`
asks of its cache, feeds the same ``cache.*`` and ``ecs.*`` collectors,
and declines every lease, so the resolver reads each hit through
:meth:`get_entry`.  ``tests/resolver/test_cache_equivalence.py`` drives it
beside the production cache op by op;
``tests/core/test_reference_equivalence.py`` swaps it into every
registered campaign.
"""

from __future__ import annotations

from repro.dns.rdtypes import SOA, RdataClass
from repro.dns.record import RRset
from repro.metrics.registry import COUNTER, GAUGE
from repro.resolver.cache import CacheEntry, CacheStats, Credibility

#: The generation of an entry object the reference let go of.
RETIRED = -1


class ScanReferenceCache:
    """A credibility-aware TTL cache made of one dict and linear scans."""

    def __init__(self, max_ttl=None, min_ttl=0, max_entries=None, metrics=None):
        self._entries: dict[tuple, CacheEntry] = {}
        self._generation = 0
        #: Per key, each scoped answer as ``(family, network, entry)``.
        self._ecs: dict[tuple, list[tuple[int, int, CacheEntry]]] = {}
        self.max_ttl = max_ttl
        self.min_ttl = min_ttl
        self.max_entries = max_entries
        self.stats = CacheStats()
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
            entry.generation = RETIRED
        self._entries.clear()
        self._ecs.clear()

    def effective_ttl(self, ttl: int) -> int:
        effective = ttl
        if self.max_ttl is not None:
            effective = min(effective, self.max_ttl)
        return max(effective, self.min_ttl)

    def _is_dead(self, entry: CacheEntry, now: float) -> bool:
        if now >= entry.expires_at:
            return True
        if entry.linked_to is not None:
            target_key, generation = entry.linked_to
            target = self._entries.get(target_key)
            if (
                target is None
                or target.generation != generation
                or now >= target.expires_at
            ):
                return True
        return False

    def _store(self, key, entry: CacheEntry) -> None:
        """Hold ``entry`` under ``key`` as the most recent; whatever the
        key held before is retired."""
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            replaced.generation = RETIRED
        self._entries[key] = entry

    def put(self, rrset, credibility, now, linked_to=None, pin=False) -> bool:
        key = (rrset.name, rrset.rdtype, rrset.rdclass)
        existing = self._entries.get(key)
        if existing is not None and not self._is_dead(existing, now):
            refreshable = credibility > existing.credibility or (
                credibility == existing.credibility
                and credibility >= Credibility.AUTH_ANSWER
            )
            if existing.pinned or not refreshable:
                self.stats.refused_downgrades += 1
                return False
        self._generation = generation = self._generation + 1
        link = None
        if linked_to is not None:
            target = self._entries.get(linked_to)
            if target is not None:
                link = (linked_to, target.generation)
        self._store(key, CacheEntry(
            rrset=rrset,
            credibility=credibility,
            inserted_at=now,
            expires_at=now + self.effective_ttl(rrset.ttl),
            generation=generation,
            linked_to=link,
            pinned=pin,
        ))
        self.stats.inserts += 1
        self._end_write(now)
        return True

    def _end_write(self, now: float) -> None:
        """How every write ends: drop the expired negatives, evict the least
        recently written entries down to ``max_entries``, dead or pinned alike,
        and note the size peak — unbounded, before the drop."""
        if self.max_entries is None:
            self.stats.size_peak = max(self.stats.size_peak or 0, len(self._entries))
        for key, entry in list(self._entries.items()):
            if entry.credibility <= Credibility.NODATA and now >= entry.expires_at:
                del self._entries[key]
                entry.generation = RETIRED
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries))).generation = RETIRED
            self.stats.evictions += 1
        self.stats.size_peak = max(self.stats.size_peak or 0, len(self._entries))

    def peek(self, name, rdtype, rdclass=RdataClass.IN):
        return self._entries.get((name, rdtype, rdclass))

    def get(
        self,
        name,
        rdtype,
        now,
        rdclass=RdataClass.IN,
        min_credibility=Credibility.ADDITIONAL,
    ):
        entry = self._entries.get((name, rdtype, rdclass))
        if entry is None:
            self.stats.misses += 1
            return None
        if self._is_dead(entry, now):
            self.stats.expired += 1
            self.stats.misses += 1
            return None
        if entry.credibility < min_credibility:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def get_entry(self, key, now, min_credibility=Credibility.ADDITIONAL):
        return self.get(key[0], key[1], now, key[2], min_credibility)

    def lease(self, key, min_credibility=Credibility.ADDITIONAL):
        """Always declined: every hit is read through :meth:`get_entry`."""
        return None

    def count_leased_hits(self, count: int) -> None:
        self.stats.negative_misses += count
        self.stats.hits += count

    def get_stale(self, name, rdtype, rdclass=RdataClass.IN):
        entry = self._entries.get((name, rdtype, rdclass))
        if entry is None or entry.credibility <= Credibility.NODATA:
            return None
        self.stats.stale_hits += 1
        return entry

    def put_negative(self, qname, qtype, nxdomain, now, soa) -> None:
        if soa is None or not soa.rdatas:
            return
        rdata = soa.rdatas[0]
        assert isinstance(rdata, SOA)
        ttl = min(soa.ttl, rdata.minimum)
        self._generation += 1
        self._store((qname, qtype, RdataClass.IN), CacheEntry(
            rrset=RRset(qname, qtype, ttl),
            credibility=Credibility.NXDOMAIN if nxdomain else Credibility.NODATA,
            inserted_at=now,
            expires_at=now + self.effective_ttl(ttl),
            generation=self._generation,
        ))
        self._end_write(now)

    def get_negative(self, qname, qtype, now):
        entry = self._entries.get((qname, qtype, RdataClass.IN))
        if entry is None or entry.credibility > Credibility.NODATA or now >= entry.expires_at:
            self.stats.negative_misses += 1
            return None
        self.stats.negative_hits += 1
        return entry

    def due_expirations(self, now, horizon):
        """Live positive entries expiring within ``horizon`` of ``now``,
        soonest first (ties by generation)."""
        return [
            (key, entry.expires_at)
            for key, entry in sorted(
                self._entries.items(),
                key=lambda item: (item[1].expires_at, item[1].generation),
            )
            if entry.credibility > Credibility.NODATA
            and now < entry.expires_at <= now + horizon
        ]

    def refresh_expiry(self, key, now) -> None:
        entry = self._entries.get(key)
        if entry is None:
            return
        lifetime = entry.expires_at - entry.inserted_at
        entry.inserted_at = now
        entry.expires_at = now + lifetime
        self._end_write(now)

    def expire_now(self, key, now) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            entry.expires_at = now
            self._end_write(now)

    def _live_scoped(self, key, now) -> list[tuple[int, int, CacheEntry]]:
        """The key's scoped answers, the expired ones dropped first."""
        bucket = self._ecs.setdefault(key, [])
        bucket[:] = [item for item in bucket if now < item[2].expires_at]
        return bucket

    def put_scoped(self, rrset, subnet, scope, now) -> None:
        bits = 32 if subnet.family == 1 else 128
        network = subnet.network_bits() >> (bits - scope) << (bits - scope)
        bucket = self._live_scoped((rrset.name, rrset.rdtype, rrset.rdclass), now)
        scoped = (subnet.family, network, CacheEntry(
            rrset=rrset,
            credibility=Credibility.AUTH_ANSWER,
            inserted_at=now,
            expires_at=now + self.effective_ttl(rrset.ttl),
            scope=scope,
            source_network=subnet.network_bits(),
        ))
        for index, (family, existing_network, existing) in enumerate(bucket):
            if (family, existing.scope, existing_network) == (subnet.family, scope, network):
                bucket[index] = scoped
                break
        else:
            bucket.append(scoped)
        self.stats.inserts += 1
        self.stats.ecs_scoped_peak = max(self.stats.ecs_scoped_peak or 0, self.ecs_scoped_len())

    def get_scoped(self, name, rdtype, subnet, now, rdclass=RdataClass.IN):
        query_bits = subnet.network_bits()
        family_bits = 32 if subnet.family == 1 else 128
        best = None
        for family, network, entry in self._live_scoped((name, rdtype, rdclass), now):
            if family != subnet.family or subnet.source_prefix < entry.scope:
                continue
            if (network ^ query_bits) >> (family_bits - entry.scope):
                continue
            if best is None or entry.scope > best.scope:
                best = entry
        if best is None:
            return None
        self.stats.hits += 1
        if best.source_network != query_bits:
            self.stats.scope_merges += 1
        return best

    def ecs_scoped_len(self) -> int:
        return sum(len(bucket) for bucket in self._ecs.values())
