"""Resource-record types and rdata classes.

Implements the record types the paper crawls and measures (§5.1: NS, A,
AAAA, MX, DNSKEY, CNAME) plus SOA (zone apex / negative caching), TXT
(measurement payloads), RRSIG (DNSSEC TTL enclosure, §2) and OPT (EDNS0).

Every rdata class supports text and wire round-trips.  Compression is used
on write only for the types RFC 3597 §4 allows (those defined in RFC 1035).
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from struct import Struct
from typing import Callable, ClassVar

from repro.dns.name import Name
from repro.dns.wire import WireError, WireReader, WireWriter


def _pseudo_member(cls, value: object, prefix: str):
    """RFC 3597 generic names: any 16-bit value becomes a ``TYPE%d``-style
    pseudo-member, so wire decoding of types and classes this module does
    not implement never crashes.  Pseudo-members are cached on the enum,
    making repeated lookups identity-stable."""
    if not isinstance(value, int) or not 0 <= value <= 0xFFFF:
        return None
    member = int.__new__(cls, value)
    member._name_ = f"{prefix}{value}"
    member._value_ = value
    return cls._value2member_map_.setdefault(value, member)


class RdataType(enum.IntEnum):
    """DNS RR TYPE values.

    The named members are the types the paper's experiments exercise;
    every other 16-bit value resolves to an RFC 3597 ``TYPE%d``
    pseudo-member (real clients routinely ask for e.g. HTTPS/65), whose
    rdata is carried opaquely by :class:`OpaqueRdata`.
    """

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    MX = 15
    TXT = 16
    AAAA = 28
    OPT = 41
    RRSIG = 46
    DNSKEY = 48

    @classmethod
    def _missing_(cls, value: object) -> "RdataType | None":
        return _pseudo_member(cls, value, "TYPE")

    @classmethod
    def from_text(cls, text: str) -> "RdataType":
        try:
            return cls[text.upper()]
        except KeyError:
            pass
        if text.upper().startswith("TYPE"):
            try:
                return cls(int(text[4:]))
            except ValueError:
                pass
        raise ValueError(f"unknown RR type {text!r}")


class RdataClass(enum.IntEnum):
    """DNS RR CLASS values.

    Unknown classes decode to ``CLASS%d`` pseudo-members (RFC 3597 §5)
    rather than raising, for the same robustness reason as
    :class:`RdataType`.
    """

    IN = 1
    CH = 3
    ANY = 255

    @classmethod
    def _missing_(cls, value: object) -> "RdataClass | None":
        return _pseudo_member(cls, value, "CLASS")


class MemberTable(dict):
    """``value -> member`` of an int enum, so wire decode indexes a table
    instead of calling the enum once per field.

    A value the table does not hold goes through the enum call — which
    builds and caches the RFC 3597 pseudo-member, or raises ``ValueError``
    for an enum that has none — and is kept.
    """

    def __init__(self, members: type[enum.IntEnum]) -> None:
        super().__init__((member.value, member) for member in members)
        self._members = members

    def __missing__(self, value: int) -> enum.IntEnum:
        member = self[value] = self._members(value)
        return member


TYPES = MemberTable(RdataType)
CLASSES = MemberTable(RdataClass)

#: The fixed-width part of each rdata that has one, as one block.
_SOA_TIMERS = Struct("!IIIII")  # SERIAL REFRESH RETRY EXPIRE MINIMUM
_DNSKEY_FIXED = Struct("!HBB")  # FLAGS PROTOCOL ALGORITHM
#: TYPE-COVERED ALGORITHM LABELS ORIGINAL-TTL EXPIRATION INCEPTION KEY-TAG
_RRSIG_FIXED = Struct("!HBBIIIH")


class Rdata:
    """Base class for typed record data.

    Subclasses are frozen dataclasses so rdata values are hashable and can
    be deduplicated in RRsets and caches.
    """

    rdtype: ClassVar[RdataType]

    def to_text(self) -> str:
        raise NotImplementedError

    def to_wire(self, writer: WireWriter) -> None:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class A(Rdata):
    """An IPv4 host address (RFC 1035 §3.4.1)."""

    address: str
    #: The address octets, kept from construction: encode never re-parses.
    packed: bytes = field(init=False, repr=False, compare=False)

    rdtype: ClassVar[RdataType] = RdataType.A

    def __post_init__(self) -> None:
        # Normalize and validate; raises ValueError on garbage.
        parsed = ipaddress.IPv4Address(self.address)
        object.__setattr__(self, "address", str(parsed))
        object.__setattr__(self, "packed", parsed.packed)

    def to_text(self) -> str:
        return self.address

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "A":
        if rdlength != 4:
            raise WireError(f"A rdata must be 4 octets, got {rdlength}")
        return cls(reader.read_bytes(4))


@dataclass(frozen=True)
class AAAA(Rdata):
    """An IPv6 host address (RFC 3596)."""

    address: str
    packed: bytes = field(init=False, repr=False, compare=False)

    rdtype: ClassVar[RdataType] = RdataType.AAAA

    def __post_init__(self) -> None:
        parsed = ipaddress.IPv6Address(self.address)
        object.__setattr__(self, "address", str(parsed))
        object.__setattr__(self, "packed", parsed.packed)

    def to_text(self) -> str:
        return self.address

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise WireError(f"AAAA rdata must be 16 octets, got {rdlength}")
        return cls(reader.read_bytes(16))


@dataclass(frozen=True)
class NS(Rdata):
    """An authoritative name server (RFC 1035 §3.3.11)."""

    target: Name

    rdtype: ClassVar[RdataType] = RdataType.NS

    def __post_init__(self) -> None:
        if not isinstance(self.target, Name):
            object.__setattr__(self, "target", Name(self.target))

    def to_text(self) -> str:
        return str(self.target)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "NS":
        return cls(reader.read_name())


@dataclass(frozen=True)
class CNAME(Rdata):
    """A canonical-name alias (RFC 1035 §3.3.1)."""

    target: Name

    rdtype: ClassVar[RdataType] = RdataType.CNAME

    def __post_init__(self) -> None:
        if not isinstance(self.target, Name):
            object.__setattr__(self, "target", Name(self.target))

    def to_text(self) -> str:
        return str(self.target)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "CNAME":
        return cls(reader.read_name())


@dataclass(frozen=True)
class MX(Rdata):
    """A mail exchanger (RFC 1035 §3.3.9)."""

    preference: int
    exchange: Name

    rdtype: ClassVar[RdataType] = RdataType.MX

    def __post_init__(self) -> None:
        if not isinstance(self.exchange, Name):
            object.__setattr__(self, "exchange", Name(self.exchange))

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange}"

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_name(self.exchange)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "MX":
        return cls(reader.read_u16(), reader.read_name())


@dataclass(frozen=True)
class SOA(Rdata):
    """Start of authority (RFC 1035 §3.3.13).

    The ``minimum`` field bounds negative-answer caching (RFC 2308).
    """

    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    rdtype: ClassVar[RdataType] = RdataType.SOA

    def __post_init__(self) -> None:
        if not isinstance(self.mname, Name):
            object.__setattr__(self, "mname", Name(self.mname))
        if not isinstance(self.rname, Name):
            object.__setattr__(self, "rname", Name(self.rname))

    def to_text(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.pack(
            _SOA_TIMERS, self.serial, self.refresh, self.retry, self.expire, self.minimum
        )

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SOA":
        return cls(reader.read_name(), reader.read_name(), *reader.unpack(_SOA_TIMERS))


@dataclass(frozen=True)
class TXT(Rdata):
    """Descriptive text (RFC 1035 §3.3.14); one or more character strings."""

    strings: tuple[str, ...]

    rdtype: ClassVar[RdataType] = RdataType.TXT

    def __post_init__(self) -> None:
        if isinstance(self.strings, str):
            object.__setattr__(self, "strings", (self.strings,))
        else:
            object.__setattr__(self, "strings", tuple(self.strings))
        for chunk in self.strings:
            if len(chunk.encode("ascii")) > 255:
                raise ValueError("TXT character-string longer than 255 octets")

    def to_text(self) -> str:
        return " ".join(f'"{chunk}"' for chunk in self.strings)

    def to_wire(self, writer: WireWriter) -> None:
        for chunk in self.strings:
            encoded = chunk.encode("ascii")
            writer.write_u8(len(encoded))
            writer.write_bytes(encoded)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "TXT":
        end = reader.offset + rdlength
        strings: list[str] = []
        while reader.offset < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length).decode("ascii"))
        if reader.offset != end:
            raise WireError("TXT rdata length mismatch")
        return cls(tuple(strings))


@dataclass(frozen=True)
class DNSKEY(Rdata):
    """A DNSSEC public key (RFC 4034 §2).

    The key material is opaque here — the paper measures DNSKEY *TTLs*, not
    signatures — but the flags/protocol/algorithm framing is faithful.
    """

    flags: int
    protocol: int
    algorithm: int
    key: bytes

    rdtype: ClassVar[RdataType] = RdataType.DNSKEY

    def to_text(self) -> str:
        import base64

        return f"{self.flags} {self.protocol} {self.algorithm} " + base64.b64encode(
            self.key
        ).decode("ascii")

    def to_wire(self, writer: WireWriter) -> None:
        writer.pack(_DNSKEY_FIXED, self.flags, self.protocol, self.algorithm)
        writer.write_bytes(self.key)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "DNSKEY":
        if rdlength < 4:
            raise WireError(f"DNSKEY rdata too short ({rdlength} octets)")
        return cls(*reader.unpack(_DNSKEY_FIXED), reader.read_bytes(rdlength - 4))


@dataclass(frozen=True)
class RRSIG(Rdata):
    """A DNSSEC signature (RFC 4034 §3).

    DNSSEC requires the signed TTL (``original_ttl``) to come from the child
    zone, which is the paper's §2 argument for child-centric resolution.
    Signature bytes are opaque.
    """

    type_covered: RdataType
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer: Name
    signature: bytes

    rdtype: ClassVar[RdataType] = RdataType.RRSIG

    def to_text(self) -> str:
        import base64

        return (
            f"{self.type_covered.name} {self.algorithm} {self.labels} "
            f"{self.original_ttl} {self.expiration} {self.inception} "
            f"{self.key_tag} {self.signer} "
            + base64.b64encode(self.signature).decode("ascii")
        )

    def to_wire(self, writer: WireWriter) -> None:
        writer.pack(
            _RRSIG_FIXED, self.type_covered, self.algorithm, self.labels,
            self.original_ttl, self.expiration, self.inception, self.key_tag,
        )
        # RFC 4034 §3.1.7: the signer's name is never compressed.
        writer.write_name(self.signer, compress=False)
        writer.write_bytes(self.signature)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "RRSIG":
        end = reader.offset + rdlength
        type_covered, *fixed = reader.unpack(_RRSIG_FIXED)
        signer = reader.read_name()
        if reader.offset > end:
            raise WireError("RRSIG signer name runs past RDLENGTH")
        signature = reader.read_bytes(end - reader.offset)
        return cls(TYPES[type_covered], *fixed, signer, signature)


@dataclass(frozen=True)
class OPT(Rdata):
    """EDNS0 OPT pseudo-record payload (RFC 6891); options are opaque."""

    options: bytes = b""

    rdtype: ClassVar[RdataType] = RdataType.OPT

    def to_text(self) -> str:
        return self.options.hex() or "-"

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_bytes(self.options)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "OPT":
        return cls(reader.read_bytes(rdlength))


@dataclass(frozen=True)
class OpaqueRdata(Rdata):
    """RFC 3597 opaque rdata for types this module does not implement.

    Carries its concrete type as an *instance* attribute (shadowing the
    class-level marker), so records of unknown type round-trip through the
    wire codec byte-for-byte.  Presentation form is the RFC 3597 §5
    ``\\# <length> <hex>`` generic encoding.
    """

    rdtype: RdataType
    data: bytes = b""

    def to_text(self) -> str:
        if not self.data:
            return "\\# 0"
        return f"\\# {len(self.data)} {self.data.hex()}"

    def to_wire(self, writer: WireWriter) -> None:
        # RFC 3597 §4: unknown rdata is never name-compressed.
        writer.write_bytes(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "OpaqueRdata":
        raise NotImplementedError("use read_rdata, which carries the type")


_RDATA_CLASSES: dict[RdataType, type[Rdata]] = {
    RdataType.A: A,
    RdataType.AAAA: AAAA,
    RdataType.NS: NS,
    RdataType.CNAME: CNAME,
    RdataType.MX: MX,
    RdataType.SOA: SOA,
    RdataType.TXT: TXT,
    RdataType.DNSKEY: DNSKEY,
    RdataType.RRSIG: RRSIG,
    RdataType.OPT: OPT,
}


def read_rdata(rdtype: RdataType, reader: WireReader, rdlength: int) -> Rdata:
    """Decode one rdata of ``rdtype`` spanning ``rdlength`` octets.

    Types without a dedicated class decode into :class:`OpaqueRdata`
    (RFC 3597), so a message carrying e.g. an HTTPS record parses cleanly
    instead of crashing the reader.
    """
    start = reader.offset
    implementation = _RDATA_CLASSES.get(rdtype)
    if implementation is None:
        rdata: Rdata = OpaqueRdata(rdtype, reader.read_bytes(rdlength))
    else:
        rdata = implementation.from_wire(reader, rdlength)
    consumed = reader.offset - start
    if consumed != rdlength:
        raise WireError(
            f"{rdtype.name} rdata consumed {consumed} octets, RDLENGTH said {rdlength}"
        )
    return rdata


# Convenience constructor registry for tests and world-building code.
make: dict[str, Callable[..., Rdata]] = {
    "A": A,
    "AAAA": AAAA,
    "NS": NS,
    "CNAME": CNAME,
    "MX": MX,
    "SOA": SOA,
    "TXT": TXT,
    "DNSKEY": DNSKEY,
    "RRSIG": RRSIG,
    "OPT": OPT,
}
