"""Zones: authoritative data with delegations and glue.

A :class:`Zone` holds the RRsets for one zone (one origin), knows where its
zone cuts are (names below the origin owning NS RRsets), and can answer a
query with either authoritative data (AA set) or a referral carrying the
delegation's NS RRset plus any in-bailiwick glue addresses.

The glue records a parent zone serves for a delegation are the "parent
TTLs" of the paper: a parent-centric resolver caches them for the parent's
TTL, while a child-centric resolver replaces them with the child's
authoritative values (RFC 2181 §5.4.1 trust ranking).

:meth:`Zone.respond` compiles each answer once — the way NSD answers from
precompiled packets — into a response every resolver's query shares, and
every mutator drops the compiled table, so a changed zone answers with its
new data on the next query.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

from repro.dns.message import (
    Message,
    Opcode,
    Question,
    Rcode,
    Section,
    response_flags,
)
from repro.dns.name import Name
from repro.dns.rdtypes import CNAME, NS, Rdata, RdataClass, RdataType, SOA
from repro.dns.record import RRset
from repro.dns.ttl import validate_ttl

#: Bound on a zone's compiled-answer table.  A campaign asks a zone a
#: handful of questions; a crawled TLD sees each delegation a few times.
#: The table simply resets when full, like the name intern tables.
_COMPILED_MAX = 1024


class ZoneError(ValueError):
    """Raised for inconsistent zone contents or out-of-zone operations."""


class LookupStatus(enum.Enum):
    ANSWER = "answer"
    DELEGATION = "delegation"
    CNAME = "cname"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"


@dataclass
class LookupResult:
    """Outcome of a zone lookup.

    ``rrsets`` carries the answer (ANSWER/CNAME) or delegation NS
    (DELEGATION); ``glue`` carries in-bailiwick A/AAAA records for a
    delegation; ``soa`` is set for negative answers.
    """

    status: LookupStatus
    rrsets: list[RRset] = field(default_factory=list)
    glue: list[RRset] = field(default_factory=list)
    soa: Optional[RRset] = None
    #: The answer was synthesised from a wildcard for this very qname.
    synthesized: bool = False


class _Compiled(dict):
    """(qname, qtype) -> the zone's shared response to a *plain* query for
    it: ID 0, RD clear, class ``IN`` — every resolver's.

    A miss compiles (:meth:`Zone._compile`), and keeps what may be reused:
    NOERROR bodies not synthesised from a wildcard.  Every writer of the
    zone's data clears the table; it also resets when full.  The zone is
    held weakly, so a dropped world is freed at once, not by the cycle
    collector.
    """

    __slots__ = ("zone",)

    def __init__(self, zone: "Zone") -> None:
        self.zone = weakref.ref(zone)

    def __missing__(self, key: tuple[Name, RdataType]) -> Message:
        return self.zone()._compile(key)

    def __reduce__(self):
        return _Compiled, (self.zone(),), None, None, iter(self.items())


def _shared_response(question: Question, body: Message, authoritative: bool) -> Message:
    """``body`` as the response to a plain query: tuple sections of the
    zone's own RRsets, which no receiver can change under the next query."""
    return Message(
        0, Opcode.QUERY, body.rcode, response_flags(authoritative, False), question,
        tuple(body.answer), tuple(body.authority), tuple(body.additional),
    )


class Zone:
    """The authoritative data for one zone origin."""

    def __init__(self, origin: Name | str, default_ttl: int = 3600) -> None:
        self.origin = Name(origin)
        self.default_ttl = validate_ttl(default_ttl)
        self._rrsets: dict[tuple[Name, RdataType], RRset] = {}
        # Indexes kept for O(labels) lookups in large zones (a TLD zone in
        # the crawl experiments holds tens of thousands of delegations):
        # zone-cut owners, and every existing node (owners plus the empty
        # non-terminals above them).
        self._cuts: set[Name] = set()
        self._nodes: set[Name] = set()
        #: Shared responses by (qname, qtype), compiled on first read and
        #: dropped whole by every writer of ``_rrsets``.  A server reads a
        #: plain query's response here itself and calls :meth:`respond`
        #: only for the rest.
        self.compiled = _Compiled(self)

    def __repr__(self) -> str:
        return f"Zone({str(self.origin)!r}, {len(self._rrsets)} rrsets)"

    # -- mutation ------------------------------------------------------------
    def add(
        self,
        name: Name | str,
        rdtype: RdataType,
        rdata: Rdata | Iterable[Rdata],
        ttl: Optional[int] = None,
    ) -> RRset:
        """Add rdata under (name, rdtype), merging into an existing RRset.

        When merging, the existing RRset's TTL wins (RFC 2181 §5.2 requires a
        single TTL per set); pass an explicit ``ttl`` and call
        :meth:`replace` to change it.
        """
        owner = self._require_in_zone(Name(name))
        rdatas = (rdata,) if isinstance(rdata, Rdata) else tuple(rdata)
        effective_ttl = self.default_ttl if ttl is None else validate_ttl(ttl)
        existing = self._rrsets.get((owner, rdtype))
        if existing is not None:
            merged = tuple(dict.fromkeys(existing.rdatas + rdatas))
            rrset = RRset(owner, rdtype, existing.ttl, merged)
        else:
            rrset = RRset(owner, rdtype, effective_ttl, rdatas)
        self._rrsets[(owner, rdtype)] = rrset
        self.compiled.clear()
        if rdtype == RdataType.NS and owner != self.origin:
            self._cuts.add(owner)
        node = owner
        while node not in self._nodes and node.is_subdomain_of(self.origin):
            self._nodes.add(node)
            if node == self.origin:
                break
            node = node.parent()
        return rrset

    def replace(
        self,
        name: Name | str,
        rdtype: RdataType,
        rdata: Rdata | Iterable[Rdata],
        ttl: Optional[int] = None,
    ) -> RRset:
        """Replace the whole RRset under (name, rdtype).

        This is the primitive behind the paper's *renumbering* experiments
        (§4.2): swapping a server's A record to point at a new machine.
        """
        owner = self._require_in_zone(Name(name))
        self._rrsets.pop((owner, rdtype), None)
        self.compiled.clear()  # here too: add() may refuse the new rdata
        return self.add(owner, rdtype, rdata, ttl)

    def remove(self, name: Name | str, rdtype: RdataType) -> None:
        owner = Name(name)
        self._rrsets.pop((owner, rdtype), None)
        self.compiled.clear()
        if rdtype == RdataType.NS:
            self._cuts.discard(owner)
        # Node bookkeeping is append-only: a removed name may leave an
        # empty non-terminal behind, which still legitimately exists.

    def set_ttl(self, name: Name | str, rdtype: RdataType, ttl: int) -> RRset:
        """Change the TTL of an existing RRset (the .uy natural experiment)."""
        owner = Name(name)
        existing = self._rrsets.get((owner, rdtype))
        if existing is None:
            raise ZoneError(f"no {rdtype.name} RRset at {owner}")
        rrset = existing.with_ttl(validate_ttl(ttl))
        self._rrsets[(owner, rdtype)] = rrset
        self.compiled.clear()
        return rrset

    def _require_in_zone(self, name: Name) -> Name:
        if not name.is_subdomain_of(self.origin):
            raise ZoneError(f"{name} is not within zone {self.origin}")
        return name

    # -- inspection -----------------------------------------------------------
    def get(self, name: Name | str, rdtype: RdataType) -> Optional[RRset]:
        return self._rrsets.get((Name(name), rdtype))

    def rrsets(self) -> Iterator[RRset]:
        yield from self._rrsets.values()

    def names(self) -> set[Name]:
        return {name for name, _ in self._rrsets}

    @property
    def soa(self) -> Optional[RRset]:
        return self._rrsets.get((self.origin, RdataType.SOA))

    def is_delegated(self, name: Name) -> Optional[Name]:
        """The deepest zone cut at-or-above ``name``, if any.

        Note: returns the *shallowest* cut on the path from the origin down
        to ``name`` — resolution stops at the first delegation crossed.
        """
        if not self._cuts:
            return None
        depth = len(self.origin) + 1
        while depth <= len(name):
            _, candidate = name.split(depth)
            if candidate in self._cuts:
                return candidate
            depth += 1
        return None

    def name_exists(self, name: Name) -> bool:
        """Does ``name`` own records or sit above records (empty non-terminal)?"""
        return name in self._nodes

    # -- lookup -----------------------------------------------------------------
    def lookup(self, qname: Name | str, qtype: RdataType) -> LookupResult:
        """Resolve a query against this zone's data.

        The order mirrors RFC 1034 §4.3.2: first find a zone cut (referral),
        then exact data, then CNAME, then the negative cases.
        """
        name = Name(qname)
        if not name.is_subdomain_of(self.origin):
            raise ZoneError(f"{name} is not within zone {self.origin}")

        cut = self.is_delegated(name)
        if cut is not None:
            ns_rrset = self._rrsets[(cut, RdataType.NS)]
            return LookupResult(
                status=LookupStatus.DELEGATION,
                rrsets=[ns_rrset],
                glue=self._glue_for(ns_rrset),
            )

        exact = self._rrsets.get((name, qtype))
        if exact is not None:
            return LookupResult(status=LookupStatus.ANSWER, rrsets=[exact])

        alias = self._rrsets.get((name, RdataType.CNAME))
        if alias is not None and qtype != RdataType.CNAME:
            chain = [alias]
            target = alias.rdatas[0]
            assert isinstance(target, CNAME)
            # Follow the chain within this zone (bounded by zone size).
            seen = {name}
            current = target.target
            while current.is_subdomain_of(self.origin) and current not in seen:
                seen.add(current)
                final = self._rrsets.get((current, qtype))
                if final is not None:
                    chain.append(final)
                    return LookupResult(status=LookupStatus.CNAME, rrsets=chain)
                next_alias = self._rrsets.get((current, RdataType.CNAME))
                if next_alias is None:
                    break
                chain.append(next_alias)
                link = next_alias.rdatas[0]
                assert isinstance(link, CNAME)
                current = link.target
            return LookupResult(status=LookupStatus.CNAME, rrsets=chain)

        if self.name_exists(name):
            return LookupResult(status=LookupStatus.NODATA, soa=self.soa)

        # RFC 1034 §4.3.3 wildcard synthesis: look for *.<closest encloser>.
        # The paper's §4 experiments answer per-probe names
        # (PROBEID.sub.cachetest.net) from a wildcard AAAA record.
        for ancestor in name.lineage()[1:]:
            if not ancestor.is_subdomain_of(self.origin):
                break
            wildcard = self._rrsets.get((ancestor.prepend("*"), qtype))
            if wildcard is not None:
                synthesized = RRset._build(
                    name, qtype, wildcard.ttl, wildcard.rdatas, wildcard.rdclass
                )
                return LookupResult(
                    status=LookupStatus.ANSWER, rrsets=[synthesized], synthesized=True
                )
            if self.name_exists(ancestor):
                break
        return LookupResult(status=LookupStatus.NXDOMAIN, soa=self.soa)

    def _glue_for(self, ns_rrset: RRset) -> list[RRset]:
        """In-bailiwick glue addresses for a delegation's server names.

        Glue is only required (and only present) for server names under the
        delegated zone; the paper's out-of-bailiwick experiments rely on
        the *absence* of glue forcing resolvers to resolve the server name
        themselves (§4.6).
        """
        glue: list[RRset] = []
        for rdata in ns_rrset.rdatas:
            assert isinstance(rdata, NS)
            if not rdata.target.is_subdomain_of(self.origin):
                continue
            for addr_type in (RdataType.A, RdataType.AAAA):
                addr = self._rrsets.get((rdata.target, addr_type))
                if addr is not None:
                    glue.append(addr)
        return glue

    # -- full responses --------------------------------------------------------
    def respond(self, query: Message) -> Message:
        """Build the full response message an authoritative server sends.

        The response is compiled once per (qname, qtype) and reused until
        the zone changes.  A plain query (ID 0, RD clear, class ``IN``)
        gets the shared response itself; any other a fresh
        :class:`Message` echoing its ID, RD bit and question over the same
        (tuple) sections.  No receiver may change an authoritative
        response: it is the next query's too.
        """
        question = query.question
        if question is None:
            return query.make_response(rcode=Rcode.FORMERR)
        shared = self.compiled[question.qname, question.qtype]
        rd = query.flags.rd
        if query.id == 0 and not rd and question.qclass is RdataClass.IN:
            return shared
        flags = response_flags(shared.flags.aa, rd)
        return replace(shared, id=query.id, flags=flags, question=question)

    def _compile(self, key: tuple[Name, RdataType]) -> Message:
        """Look the question up and build its shared response.

        Responses for names the zone does not hold — NXDOMAIN, wildcard
        matches, out-of-zone names — are built afresh each time: their
        key space is whatever clients choose to ask.
        """
        qname, qtype = key
        # A scratch message: add() keeps one RRset per key in each section.
        body = Message()
        question = Question(qname, qtype)
        if not qname.is_subdomain_of(self.origin):
            body.rcode = Rcode.REFUSED
            return _shared_response(question, body, authoritative=False)

        result = self.lookup(qname, qtype)
        authoritative = True
        if result.status is LookupStatus.DELEGATION:
            authoritative = False
            body.add(Section.AUTHORITY, *result.rrsets)
            body.add(Section.ADDITIONAL, *result.glue)
        elif result.status in (LookupStatus.ANSWER, LookupStatus.CNAME):
            body.add(Section.ANSWER, *result.rrsets)
            apex_ns = self._rrsets.get((self.origin, RdataType.NS))
            if apex_ns is not None and qtype != RdataType.NS:
                body.add(Section.AUTHORITY, apex_ns)
                body.add(Section.ADDITIONAL, *self._glue_for(apex_ns))
        else:
            if result.status is LookupStatus.NXDOMAIN:
                body.rcode = Rcode.NXDOMAIN
            if result.soa is not None:
                body.add(Section.AUTHORITY, result.soa)
        response = _shared_response(question, body, authoritative)
        if body.rcode is Rcode.NOERROR and not result.synthesized:
            if len(self.compiled) >= _COMPILED_MAX:
                self.compiled.clear()
            self.compiled[key] = response
        return response

    # -- convenience -------------------------------------------------------------
    def add_soa(
        self,
        mname: Name | str,
        rname: Name | str = "hostmaster.invalid.",
        serial: int = 1,
        refresh: int = 7200,
        retry: int = 3600,
        expire: int = 1209600,
        minimum: int = 3600,
        ttl: Optional[int] = None,
    ) -> RRset:
        rdata = SOA(Name(mname), Name(rname), serial, refresh, retry, expire, minimum)
        return self.replace(self.origin, RdataType.SOA, rdata, ttl)

    def to_text(self) -> str:
        lines = [f"; zone {self.origin}"]
        for rrset in sorted(self._rrsets.values(), key=lambda r: (r.name, int(r.rdtype))):
            lines.append(rrset.to_text())
        return "\n".join(lines)
