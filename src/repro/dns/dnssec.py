"""DNSSEC-lite: signature framing without cryptography.

The paper uses DNSSEC as an argument, not an experiment: "DNSSEC [...]
confirms that authoritative TTL values must be enclosed in and verified by
the signature record, which must come from the child zone" (§2), making
validating resolvers necessarily child-centric for TTLs.

This module provides exactly that mechanic: :func:`sign_zone` attaches an
RRSIG to every authoritative RRset, embedding the RRset's TTL as
``original_ttl`` (RFC 4034 §3.1.4); a validating resolver then clamps any
received TTL to the signed original (RFC 4035 §5.3.3 — a cache must not
honour a TTL above the signed value).  Signature bytes are opaque: we
model the TTL enclosure, not the cryptography (see DESIGN.md §7).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dns.name import Name
from repro.dns.rdtypes import DNSKEY, RRSIG, RdataType
from repro.dns.record import RRset
from repro.dns.zone import Zone

#: Fixed validity window for simulated signatures (content is unchecked).
_INCEPTION = 0
_EXPIRATION = 2**31 - 1


def make_rrsig(rrset: RRset, signer: Name, key_tag: int = 12345) -> RRSIG:
    """An RRSIG covering ``rrset``, enclosing its TTL as original_ttl."""
    return RRSIG(
        type_covered=rrset.rdtype,
        algorithm=13,
        labels=len(rrset.name),
        original_ttl=rrset.ttl,
        expiration=_EXPIRATION,
        inception=_INCEPTION,
        key_tag=key_tag,
        signer=signer,
        signature=bytes((key_tag + int(rrset.rdtype)) % 256 for _ in range(8)),
    )


def sign_zone(zone: Zone, key_tag: int = 12345) -> int:
    """Sign every authoritative RRset in ``zone``; returns how many.

    Delegation NS sets (and their glue) are *not* signed — per RFC 4035
    they are non-authoritative in the parent, which is precisely why the
    child's (signed) data must outrank them.  A DNSKEY is added at the
    apex if absent.
    """
    if zone.get(zone.origin, RdataType.DNSKEY) is None:
        zone.add(
            zone.origin,
            RdataType.DNSKEY,
            DNSKEY(257, 3, 13, key_tag.to_bytes(2, "big") * 4),
            ttl=zone.default_ttl,
        )
    cuts = {rrset.name for rrset in zone.delegations()}
    signed = 0
    signatures: list[tuple[Name, RRSIG, int]] = []
    for rrset in list(zone.rrsets()):
        if rrset.rdtype == RdataType.RRSIG:
            continue
        if rrset.name in cuts and rrset.rdtype == RdataType.NS:
            continue  # delegation: parent-side, unsigned
        is_glue = any(rrset.name.is_proper_subdomain_of(cut) for cut in cuts)
        if is_glue:
            continue
        signatures.append((rrset.name, make_rrsig(rrset, zone.origin, key_tag), rrset.ttl))
        signed += 1
    for name, rrsig, ttl in signatures:
        zone.add(name, RdataType.RRSIG, rrsig, ttl=ttl)
    return signed


def covering_rrsig(rrsets: Iterable[RRset], rrset: RRset) -> Optional[RRSIG]:
    """The RRSIG among ``rrsets`` (a message section) covering ``rrset``, if any."""
    for candidate in rrsets:
        if candidate.rdtype != RdataType.RRSIG or candidate.name != rrset.name:
            continue
        for rdata in candidate.rdatas:
            assert isinstance(rdata, RRSIG)
            if rdata.type_covered == rrset.rdtype:
                return rdata
    return None


def clamp_to_signed_ttl(rrset: RRset, rrsig: RRSIG) -> RRset:
    """RFC 4035 §5.3.3: never cache above the signed original TTL."""
    if rrset.ttl <= rrsig.original_ttl:
        return rrset
    return rrset.with_ttl(rrsig.original_ttl)
