"""Encode-once memoization of hot responses.

A resolver frontend spends most of a hot query's budget on work whose
result never changes between two arrivals of the *same* query while the
underlying cache state holds still: decode, cache lookup, response
assembly, wire encoding.  :class:`ResponseMemo` caches the final wire
bytes keyed on everything after the 2-byte DNS ID (``query_wire[2:]``),
so two queries that differ only in ID — the definition of a repeat —
hit the memo, and two queries that differ in *anything* else (flags,
qname case, EDNS payload, OPT options) cannot alias.  A hit costs one
dict probe plus a 2-byte ID splice; the decoder never runs.

Correctness contract — a memoized answer must be byte-identical to what
a fresh encode would produce at the serving instant, which pins down
exactly when an entry may be reused:

- **stamps**: an entry keeps one ``(holder, generation, expires_at)``
  stamp per :class:`~repro.resolver.cache.CacheEntry` its bytes came
  from — each answer RRset's, or the negative entry of an NXDOMAIN/NODATA
  answer — and is dropped on sight once any holder's ``generation`` or
  ``expires_at`` differs from its stamp, or ``now`` reaches a stamped
  expiry.  A cache write rewrites the generation, forced expiry and
  lifetime refreshes move the expiry, and every object the cache lets go
  of (eviction, flush, an expired negative, an entry a negative replaces)
  is retired to a generation no stamp carries — so a ``--predict``
  refresh or a stale-revalidation kills the memoized bytes the moment it
  lands, with no feed from the cache;
- **TTL patch while the stamps hold**: a cached RRset's client-visible
  TTL is ``int(expires_at - now)``, so bytes encoded with TTLs ``T_i``
  from entries expiring at ``E_i`` are exact while ``now <= min(E_i -
  T_i)``.  Past that bound an entry whose one stamp is the resolver's
  hit lease (the slow path would be a clean hit on exactly that entry)
  has its answer TTLs rewritten to ``int(E - now)`` — ``aged_rrset``'s
  arithmetic — and lives as long as its cache entry; any other entry is
  dropped, so a memoized answer can never overstate a TTL.

The memo is bounded; at capacity the oldest entry is dropped (hot
entries are re-memoized on their next slow pass, so FIFO here costs one
extra resolution, not correctness).
"""

from __future__ import annotations

from struct import Struct
from typing import TYPE_CHECKING, Optional

from repro.dns.name import Name
from repro.dns.rdtypes import RdataType

if TYPE_CHECKING:
    from repro.resolver.cache import CacheEntry

    #: ``(holder, generation, expires_at)`` as read when the bytes were built.
    Stamp = tuple[CacheEntry, int, float]

#: Default bound on memoized responses (distinct post-ID query forms).
DEFAULT_MEMO_CAPACITY = 4096

_TTL = Struct(">I")


def _skip_name(wire: bytes, offset: int) -> int:
    """The offset just past the (possibly compressed) name at ``offset``."""
    while 0 < wire[offset] < 0xC0:
        offset += wire[offset] + 1
    return offset + (1 if wire[offset] == 0 else 2)


def _ttl_offsets(wire: bytes) -> tuple[int, ...]:
    """Where each answer RR's TTL sits in an encoded one-question response."""
    offset = _skip_name(wire, 12) + 4  # the question: name, type, class
    offsets = []
    for _ in range(wire[6] << 8 | wire[7]):  # ANCOUNT
        offset = _skip_name(wire, offset) + 4  # owner, type, class
        offsets.append(offset)
        offset += 6 + (wire[offset + 4] << 8 | wire[offset + 5])  # TTL, RDLENGTH, RDATA
    return tuple(offsets)


class MemoEntry:
    """One memoized response plus what the bookkeeping paths need."""

    __slots__ = ("wire", "valid_until", "qname", "qtype", "rcode_name", "stamps", "negative",
                 "ttl_offsets")

    def __init__(
        self,
        wire: bytes,
        valid_until: float,
        qname: Name,
        qtype: RdataType,
        rcode_name: str,
        stamps: tuple[Stamp, ...],
        negative: bool,
        ttl_offsets: tuple[int, ...],
    ) -> None:
        self.wire = wire
        #: Last sim instant at which the encoded bytes are still exact.
        self.valid_until = valid_until
        self.qname = qname
        self.qtype = qtype
        self.rcode_name = rcode_name
        #: The cache entries the bytes came from, as they were then.
        self.stamps = stamps
        #: An NXDOMAIN/NODATA answer: the slow path's hit is a negative one.
        self.negative = negative
        #: Where the answer TTLs sit; empty unless the entry is patchable.
        self.ttl_offsets = ttl_offsets


class ResponseMemo:
    """Bounded wire-response cache keyed on the post-ID query bytes."""

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be positive, not {capacity}")
        self.capacity = capacity
        self._entries: dict[bytes, MemoEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path -----------------------------------------------------
    def get(self, key: bytes, sim_now: float) -> Optional[MemoEntry]:
        """The entry for ``key`` exact at ``sim_now``, else ``None``.

        An entry with a stamp whose holder has moved or expired is
        dropped on sight: its bytes may no longer be what the slow path
        would encode.  Past its validity bound a patchable entry has its
        TTLs rewritten to the ones the slow path would age to; any other
        is dropped.  The stamps are checked inline — a hit on exact bytes
        makes no call beyond the dict probe.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        for holder, generation, expires_at in entry.stamps:
            if (
                holder.generation != generation
                or holder.expires_at != expires_at
                or sim_now >= expires_at
            ):
                break
        else:
            if sim_now <= entry.valid_until:
                self.hits += 1
                return entry
            if entry.ttl_offsets:
                # One stamp, the leased entry: CacheEntry.aged_rrset's TTL.
                ttl = int(expires_at - sim_now)
                wire = bytearray(entry.wire)
                for offset in entry.ttl_offsets:
                    _TTL.pack_into(wire, offset, ttl)
                entry.wire = bytes(wire)
                entry.valid_until = expires_at - ttl
                self.hits += 1
                return entry
        del self._entries[key]
        self.misses += 1
        return None

    def put(
        self,
        key: bytes,
        wire: bytes,
        valid_until: float,
        qname: Name,
        qtype: RdataType,
        rcode_name: str,
        stamps: tuple[Stamp, ...] = (),
        negative: bool = False,
        patchable: bool = False,
    ) -> None:
        """Memoize ``wire``; ``patchable`` when its one stamp is a hit lease."""
        entries = self._entries
        if entries.pop(key, None) is None and len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        offsets = _ttl_offsets(wire) if patchable else ()
        entries[key] = MemoEntry(
            wire, valid_until, qname, qtype, rcode_name, stamps, negative, offsets
        )
