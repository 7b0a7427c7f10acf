"""DNS messages.

Implements the RFC 1035 §4.1 message: a 12-octet header (ID, flags, section
counts), a question section, and answer / authority / additional record
sections.  The distinction between the three record sections is central to
the paper (§3.1): a record's *section* determines how much a resolver
trusts it, and parent-vs-child centricity is exactly the question of whether
glue in a referral's additional section outranks an authoritative answer.

A section is a list of :class:`~repro.dns.record.RRset` objects, at most
one per (name, type, class): the zone's own sets go in by reference and
the resolver caches those same objects.  Individual records exist on the
wire (:meth:`Message.from_wire` decodes and groups them) and in the
per-record view :meth:`Message.records`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from struct import Struct
from typing import Iterator, Optional

from repro.dns.name import Name
from repro.dns.rdtypes import CLASSES, TYPES, MemberTable, RdataClass, RdataType
from repro.dns.record import RR_FIXED, ResourceRecord, RRset, group_rrsets
from repro.dns.wire import WireError, WireReader, WireWriter


class Opcode(enum.IntEnum):
    QUERY = 0
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5
    #: Pub/sub session kinds (see :mod:`repro.push`): RFC 8490 DNS
    #: Stateful Operations would carry these as DSO TLVs on one opcode;
    #: the sim flattens them into dedicated opcodes in the reserved
    #: range so framed session traffic stays a plain :class:`Message`.
    #: ``NOTIFY`` (RFC 1996) is reused as the server->subscriber push.
    SUBSCRIBE = 7
    UNSUBSCRIBE = 8
    KEEPALIVE = 9


class Rcode(enum.IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


#: Header values outside the enums raise ``ValueError`` at decode.
_OPCODES = MemberTable(Opcode)
_RCODES = MemberTable(Rcode)

#: The fixed 12-octet header: ID, flag bits, four section counts.
_HEADER = Struct("!HHHHHH")
#: QTYPE, QCLASS after the question name.
_QUESTION_FIXED = Struct("!HH")
#: A whole OPT pseudo-record up to its options: root owner, TYPE, the
#: payload size in CLASS, the flags in TTL, RDLENGTH.
_OPT_FIXED = Struct("!BHHIH")


class Section(enum.Enum):
    """The three record-bearing sections of a response (RFC 1035 §4.1)."""

    ANSWER = "answer"
    AUTHORITY = "authority"
    ADDITIONAL = "additional"


_SECTIONS = tuple(Section)

#: Messages without EDNS are limited to the classic RFC 1035 payload.
CLASSIC_UDP_PAYLOAD = 512

#: The payload size modern resolvers advertise (DNS flag day 2020).
DEFAULT_EDNS_PAYLOAD = 1232


@dataclass(frozen=True)
class Edns:
    """The EDNS0 parameters carried by an OPT pseudo-record (RFC 6891).

    An OPT record abuses the RR fields: CLASS is the sender's UDP payload
    size, the TTL packs extended-rcode/version/flags, and the rdata holds
    opaque options.  It is therefore parsed into this sidecar rather than
    into the additional section.
    """

    udp_payload: int = DEFAULT_EDNS_PAYLOAD
    ext_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    options: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.udp_payload <= 0xFFFF:
            raise ValueError(f"EDNS payload {self.udp_payload} outside u16")
        if self.version != 0:
            raise ValueError(f"unsupported EDNS version {self.version}")

    @property
    def effective_payload(self) -> int:
        """The advertised size, floored at 512 as RFC 6891 §6.2.5 requires."""
        return max(CLASSIC_UDP_PAYLOAD, self.udp_payload)


@dataclass(frozen=True)
class Flags:
    """Header flag bits.

    ``aa`` (Authoritative Answer) is what marks child-zone data as
    authoritative; the paper's Table 1 uses ★ for records carried in
    AA-flagged answers.
    """

    qr: bool = False  # response (vs query)
    aa: bool = False  # authoritative answer
    tc: bool = False  # truncated
    rd: bool = True  # recursion desired
    ra: bool = False  # recursion available

    def to_wire_bits(self, opcode: Opcode, rcode: Rcode) -> int:
        bits = (opcode & 0xF) << 11 | rcode & 0xF
        if self.qr:
            bits |= 0x8000
        if self.aa:
            bits |= 0x0400
        if self.tc:
            bits |= 0x0200
        if self.rd:
            bits |= 0x0100
        if self.ra:
            bits |= 0x0080
        return bits

    @classmethod
    def from_wire_bits(cls, bits: int) -> tuple["Flags", Opcode, Rcode]:
        flags = _FLAGS[bits >> 11 & 0x10 | bits >> 7 & 0xF]
        return flags, _OPCODES[bits >> 11 & 0xF], _RCODES[bits & 0xF]


#: Every combination of the five flag bits, built once (``Flags`` is
#: frozen); indexed by ``qr aa tc rd ra`` read as a 5-bit number — on the
#: wire AA..RA are adjacent (bits 10..7) and QR is bit 15.
_FLAGS = tuple(
    Flags(
        qr=bool(index & 16),
        aa=bool(index & 8),
        tc=bool(index & 4),
        rd=bool(index & 2),
        ra=bool(index & 1),
    )
    for index in range(32)
)


def response_flags(
    authoritative: bool, recursion_desired: bool, recursion_available: bool = False
) -> Flags:
    """The shared response header for these three bits (QR set, TC clear)."""
    return _FLAGS[
        16 | authoritative << 3 | recursion_desired << 1 | recursion_available
    ]


@dataclass(frozen=True, slots=True)
class Question:
    """A question-section entry."""

    qname: Name
    qtype: RdataType
    qclass: RdataClass = RdataClass.IN

    def __post_init__(self) -> None:
        if not isinstance(self.qname, Name):
            object.__setattr__(self, "qname", Name(self.qname))

    def to_text(self) -> str:
        return f"{self.qname} {self.qclass.name} {self.qtype.name}"

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.qname)
        writer.pack(_QUESTION_FIXED, self.qtype, self.qclass)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "Question":
        qname = reader.read_name()
        qtype, qclass = reader.unpack(_QUESTION_FIXED)
        return cls(qname, TYPES[qtype], CLASSES[qclass])


@dataclass(slots=True)
class Message:
    """A DNS query or response."""

    id: int = 0
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR
    flags: Flags = field(default_factory=Flags)
    question: Optional[Question] = None
    answer: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    additional: list[RRset] = field(default_factory=list)
    #: EDNS0 sidecar; ``None`` means the message carries no OPT record.
    edns: Optional[Edns] = None

    # -- constructors -----------------------------------------------------------
    @classmethod
    def make_query(
        cls,
        qname: Name | str,
        qtype: RdataType,
        qclass: RdataClass = RdataClass.IN,
        id: int = 0,
        recursion_desired: bool = True,
    ) -> "Message":
        return cls(
            id=id,
            flags=Flags(qr=False, rd=recursion_desired),
            question=Question(Name(qname), qtype, qclass),
        )

    def make_response(
        self,
        rcode: Rcode = Rcode.NOERROR,
        authoritative: bool = False,
        recursion_available: bool = False,
    ) -> "Message":
        """A response skeleton echoing this query's ID and question."""
        return Message(
            id=self.id,
            rcode=rcode,
            flags=_FLAGS[
                16 | authoritative << 3 | self.flags.rd << 1 | recursion_available
            ],
            question=self.question,
        )

    # -- EDNS -----------------------------------------------------------------------
    def use_edns(
        self,
        udp_payload: int = DEFAULT_EDNS_PAYLOAD,
        dnssec_ok: bool = False,
        options: bytes = b"",
    ) -> "Message":
        """Attach an OPT record advertising ``udp_payload``; returns self.

        ``options`` is the raw EDNS option blob (e.g. an ECS TLV built by
        :mod:`repro.dns.ecs`); the message layer carries it opaquely.
        """
        self.edns = Edns(udp_payload=udp_payload, dnssec_ok=dnssec_ok, options=options)
        return self

    @property
    def udp_payload_limit(self) -> int:
        """The largest UDP response this message's sender can accept."""
        if self.edns is None:
            return CLASSIC_UDP_PAYLOAD
        return self.edns.effective_payload

    # -- section access ------------------------------------------------------------
    def section(self, section: Section) -> list[RRset]:
        if section is Section.ANSWER:
            return self.answer
        if section is Section.AUTHORITY:
            return self.authority
        return self.additional

    def add(self, section: Section, *rrsets: RRset) -> None:
        """Append ``rrsets``, keeping one RRset per (name, type, class).

        A set whose key the section already holds merges into the held one
        (:meth:`RRset.merged`: rdatas appended, minimum TTL) at the held
        one's position.
        """
        held = self.section(section)
        for rrset in rrsets:
            for index, existing in enumerate(held):
                if (
                    existing.rdtype == rrset.rdtype
                    and existing.name == rrset.name
                    and existing.rdclass == rrset.rdclass
                ):
                    held[index] = existing.merged(rrset)
                    break
            else:
                held.append(rrset)

    def rrsets(self, section: Section) -> list[RRset]:
        """The section's RRsets: the section list itself, not a copy."""
        return self.section(section)

    def records(self, section: Section) -> Iterator[ResourceRecord]:
        """The per-record view of one section (text output, record counts)."""
        for rrset in self.section(section):
            yield from rrset.records()

    def all_records(self) -> Iterator[tuple[Section, ResourceRecord]]:
        for section in Section:
            for record in self.records(section):
                yield section, record

    def find_rrset(
        self,
        section: Section,
        name: Name,
        rdtype: RdataType,
        rdclass: RdataClass = RdataClass.IN,
    ) -> Optional[RRset]:
        """The RRset for (name, type, class) in ``section``, or ``None``."""
        for rrset in self.section(section):
            if rrset.rdtype == rdtype and rrset.name == name and rrset.rdclass == rdclass:
                return rrset
        return None

    def is_referral(self) -> bool:
        """A delegation response: NOERROR, no answer, an NS set in authority."""
        return self.rcode == Rcode.NOERROR and not self.answer and any(
            rrset.rdtype == RdataType.NS for rrset in self.authority
        )

    def answer_rrset(self) -> Optional[RRset]:
        """The answer RRset matching the question, if any (CNAMEs aside)."""
        if self.question is None:
            return None
        return self.find_rrset(
            Section.ANSWER, self.question.qname, self.question.qtype, self.question.qclass
        )

    def aged(self, seconds: int) -> "Message":
        """A copy with every RRset's TTL aged by ``seconds``."""
        return Message(
            id=self.id,
            opcode=self.opcode,
            rcode=self.rcode,
            flags=self.flags,
            question=self.question,
            answer=[rrset.aged(seconds) for rrset in self.answer],
            authority=[rrset.aged(seconds) for rrset in self.authority],
            additional=[rrset.aged(seconds) for rrset in self.additional],
        )

    def to_text(self) -> str:
        lines = [
            f";; id {self.id} opcode {self.opcode.name} rcode {self.rcode.name} "
            f"flags{' qr' if self.flags.qr else ''}{' aa' if self.flags.aa else ''}"
            f"{' rd' if self.flags.rd else ''}{' ra' if self.flags.ra else ''}"
        ]
        if self.question is not None:
            lines.append(";; QUESTION")
            lines.append(self.question.to_text())
        for section in Section:
            rrsets = self.section(section)
            if rrsets:
                lines.append(f";; {section.name}")
                lines.extend(rrset.to_text() for rrset in rrsets)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()

    # -- wire -----------------------------------------------------------------------
    def to_wire(self) -> bytes:
        sections = (self.answer, self.authority, self.additional)
        edns = self.edns
        counts = [0, 0, 1 if edns is not None else 0]
        for index, rrsets in enumerate(sections):
            for rrset in rrsets:
                counts[index] += len(rrset.rdatas)
        writer = WireWriter()
        writer.pack(
            _HEADER,
            self.id,
            self.flags.to_wire_bits(self.opcode, self.rcode),
            1 if self.question is not None else 0,
            *counts,
        )
        if self.question is not None:
            self.question.to_wire(writer)
        for rrsets in sections:
            for rrset in rrsets:
                rrset.to_wire(writer)
        if edns is not None:
            # The OPT pseudo-record goes last in the additional section.
            ttl = (edns.ext_rcode & 0xFF) << 24 | (edns.version & 0xFF) << 16
            if edns.dnssec_ok:
                ttl |= 0x8000
            writer.pack(
                _OPT_FIXED, 0, RdataType.OPT, edns.udp_payload, ttl, len(edns.options)
            )
            if edns.options:
                writer.write_bytes(edns.options)
        return writer.getvalue()

    @staticmethod
    def _read_opt(
        name: Name, udp_payload: int, ttl: int, rdlength: int, reader: WireReader
    ) -> Edns:
        """The EDNS sidecar of an OPT whose :data:`RR_FIXED` block is read."""
        if not name.is_root:
            raise WireError(f"OPT record owned by {name}, not the root")
        version = (ttl >> 16) & 0xFF
        if version != 0:
            raise WireError(f"unsupported EDNS version {version}")
        return Edns(
            udp_payload=udp_payload,
            ext_rcode=(ttl >> 24) & 0xFF,
            version=version,
            dnssec_ok=bool(ttl & 0x8000),
            options=reader.read_bytes(rdlength),
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        reader = WireReader(data)
        message_id, bits, qdcount, *counts = reader.unpack(_HEADER)
        flags, opcode, rcode = Flags.from_wire_bits(bits)
        if qdcount > 1:
            raise WireError(f"unsupported QDCOUNT {qdcount}")
        question = Question.from_wire(reader) if qdcount else None
        # The one place records are decoded one by one (each validated by
        # the ResourceRecord constructor) and grouped into the section's
        # RRsets: first-seen order, minimum TTL within a set.
        sections: list[list[RRset]] = []
        edns = None
        for section, count in zip(_SECTIONS, counts):
            records: list[ResourceRecord] = []
            for _ in range(count):
                name = reader.read_name()
                fixed = reader.unpack(RR_FIXED)
                if fixed[0] != RdataType.OPT:
                    records.append(ResourceRecord.from_wire_body(name, *fixed, reader))
                    continue
                if section is not Section.ADDITIONAL:
                    raise WireError(f"OPT record in the {section.name} section")
                if edns is not None:
                    raise WireError("more than one OPT record")
                edns = cls._read_opt(name, *fixed[1:], reader)
            sections.append(group_rrsets(records) if records else [])
        if reader.remaining:
            raise WireError(f"{reader.remaining} trailing octets after message")
        return cls(message_id, opcode, rcode, flags, question, *sections, edns)
