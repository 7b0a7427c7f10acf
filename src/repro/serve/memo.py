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
  answer — and lapses once any holder's ``generation`` or ``expires_at``
  differs from its stamp, or ``now`` reaches a stamped expiry.  A cache
  write rewrites the generation, forced expiry and lifetime refreshes
  move the expiry, and every object the cache lets go of (eviction,
  flush, an expired negative, an entry a negative replaces) is retired to
  a generation no stamp carries — so a ``--predict`` refresh or a
  stale-revalidation lapses the memoized bytes the moment it lands, with
  no feed from the cache;
- **TTL patch while the stamps hold**: a cached RRset's client-visible
  TTL is ``int(expires_at - now)``, so bytes encoded with TTLs ``T_i``
  from entries expiring at ``E_i`` are exact while ``now <= min(E_i -
  T_i)``.  Past that bound an entry whose one stamp is the resolver's
  hit lease (the slow path would be a clean hit on exactly that entry)
  has its answer TTLs rewritten to ``int(E - now)`` — ``aged_rrset``'s
  arithmetic — and lives as long as its cache entry; any other entry
  lapses, so a memoized answer can never overstate a TTL;
- **a lapsed image is held, never served**: :meth:`ResponseMemo.get`
  counts a miss and keeps it for the form's next slow pass, which takes
  it (:meth:`ResponseMemo.take`) and resolves again without decoding.  An answer of the image's shape —
  rcode, and per answer RRset the owner, type, class and rdatas — is the
  image with the new ID and TTLs packed in (:meth:`MemoEntry.reprint`),
  and is then re-stamped or let go by the admission rules; any other
  answer lets the image go and is decoded and encoded as on a first sight.

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
    from repro.dns.record import RRset
    from repro.resolver.cache import CacheEntry

    #: ``(holder, generation, expires_at)`` as read when the bytes were built.
    Stamp = tuple[CacheEntry, int, float]

#: Default bound on memoized responses (distinct post-ID query forms).
DEFAULT_MEMO_CAPACITY = 4096

_TTL = Struct(">I")

_UNPROBED = object()  # ResponseMemo.get's default: no caller probed the table


def _skip_name(wire: bytes, offset: int) -> int:
    """The offset just past the (possibly compressed) name at ``offset``."""
    while 0 < wire[offset] < 0xC0:
        offset += wire[offset] + 1
    return offset + (1 if wire[offset] == 0 else 2)


def _ttl_offsets(wire: bytes, shape: tuple) -> tuple[tuple[int, ...], ...]:
    """Per answer RRset of ``shape``, where its RRs' TTLs sit in ``wire``,
    an encoded one-question response."""
    offset = _skip_name(wire, 12) + 4  # the question: name, type, class
    grouped: tuple = ()
    for *_, rdatas in shape:
        offsets: tuple = ()
        for _ in rdatas:
            offset = _skip_name(wire, offset) + 4  # owner, type, class
            offsets += (offset,)
            offset += 6 + (wire[offset + 4] << 8 | wire[offset + 5])  # TTL, RDLENGTH, RDATA
        grouped += (offsets,)
    return grouped


class MemoEntry:
    """One memoized response (its image) plus what the bookkeeping paths need."""

    __slots__ = ("wire", "valid_until", "qname", "qtype", "rcode_name", "stamps", "shape",
                 "ttl_offsets", "patchable")

    def __init__(self, wire: bytes, valid_until: float, qname: Name, qtype: RdataType,
                 rcode_name: str, stamps: tuple[Stamp, ...], shape: tuple,
                 ttl_offsets: tuple[tuple[int, ...], ...], patchable: bool) -> None:
        self.wire = wire
        #: Last sim instant at which the encoded bytes are still exact.
        self.valid_until = valid_until
        self.qname = qname
        self.qtype = qtype
        self.rcode_name = rcode_name
        #: The cache entries the bytes came from, as they were then;
        #: ``None`` once the image has lapsed.
        self.stamps: Optional[tuple[Stamp, ...]] = stamps
        #: Per answer RRset, all that decides its bytes but the TTL:
        #: ``(owner, rdtype, rdclass, rdatas)``.  Empty for NXDOMAIN/NODATA.
        self.shape = shape
        #: Per answer RRset, where its RRs' TTLs sit in ``wire``.
        self.ttl_offsets = ttl_offsets
        #: The one stamp is the resolver's hit lease: TTLs may age in place.
        self.patchable = patchable

    def reprint(self, data: bytes, rcode_name: str, answers: list[RRset]) -> Optional[bytes]:
        """What an encode of ``rcode_name`` and ``answers`` in reply to
        query ``data`` would produce: the image with ``data``'s ID and each
        answer RR's TTL packed in place.  ``None`` unless the answer has
        the image's shape."""
        if rcode_name != self.rcode_name or len(answers) != len(self.shape):
            return None
        wire = bytearray(self.wire)
        wire[:2] = data[:2]
        for rrset, shape, offsets in zip(answers, self.shape, self.ttl_offsets):
            if (rrset.name, rrset.rdtype, rrset.rdclass, rrset.rdatas) != shape:
                return None
            for offset in offsets:
                _TTL.pack_into(wire, offset, rrset.ttl)
        return bytes(wire)


class ResponseMemo:
    """Bounded wire-response cache keyed on the post-ID query bytes."""

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be positive, not {capacity}")
        self.capacity = capacity
        self.entries: dict[bytes, MemoEntry] = {}
        self.hits = self.misses = self.negative_hits = 0  # negative: NXDOMAIN/NODATA

    def __len__(self) -> int:
        return len(self.entries)

    # -- the fast path -----------------------------------------------------
    def get(self, key: bytes, sim_now: float, entry: object = _UNPROBED) -> Optional[MemoEntry]:
        """The entry for ``key`` exact at ``sim_now``, else ``None``;
        ``entry`` is what a caller's own probe of :attr:`entries` found.

        An entry with a stamp whose holder has moved or expired lapses:
        its bytes may no longer be what the slow path would encode, so it
        is held for that slow pass and never served again.  Past its
        validity bound a patchable entry has its TTLs rewritten to the
        ones the slow path would age to; any other lapses.  The stamps are
        checked inline: a hit makes no call beyond the dict probe and counts
        itself in :attr:`hits` (and :attr:`negative_hits` if it has no answer
        RRset).  :meth:`DnsFrontend.fast_answer` serves exact hits itself.
        """
        if entry is _UNPROBED:
            entry = self.entries.get(key)
        if entry is not None and entry.stamps is not None:
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
                    if not entry.shape:
                        self.negative_hits += 1
                    return entry
                if entry.patchable:
                    # One stamp, the leased (positive) entry: CacheEntry.aged_rrset's TTL.
                    ttl = int(expires_at - sim_now)
                    wire = bytearray(entry.wire)
                    for offsets in entry.ttl_offsets:
                        for offset in offsets:
                            _TTL.pack_into(wire, offset, ttl)
                    entry.wire = bytes(wire)
                    entry.valid_until = expires_at - ttl
                    self.hits += 1
                    return entry
            entry.stamps = None
        self.misses += 1
        return None

    # -- the slow path -----------------------------------------------------
    def take(self, key: bytes) -> Optional[MemoEntry]:
        """Remove and return the lapsed image held for ``key``, if any: the
        slow pass that takes it re-stamps it with :meth:`put` or lets it go."""
        image = self.entries.get(key)
        if image is None or image.stamps is not None:
            return None
        del self.entries[key]
        return image

    def put(self, key: bytes, wire: bytes, valid_until: float, qname: Name, qtype: RdataType,
            rcode_name: str, stamps: tuple[Stamp, ...] = (), answers: list[RRset] = (),
            patchable: bool = False, image: Optional[MemoEntry] = None) -> None:
        """Memoize ``wire``, the encoded ``answers``, at the recent end;
        ``patchable`` when its one stamp is a hit lease.  ``image`` is the
        taken image ``wire`` was reprinted from: it lends its TTL offsets."""
        shape: tuple = ()
        for rrset in answers:
            shape += ((rrset.name, rrset.rdtype, rrset.rdclass, rrset.rdatas),)
        entries = self.entries
        if entries.pop(key, None) is None and len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        if image is not None:
            offsets = image.ttl_offsets
        else:
            offsets = _ttl_offsets(wire, shape) if shape else ()
        entries[key] = MemoEntry(wire, valid_until, qname, qtype, rcode_name, stamps, shape,
                                 offsets, patchable)
