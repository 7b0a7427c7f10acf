"""Resource records and RRsets.

A :class:`ResourceRecord` is one (name, type, class, TTL, rdata) tuple; an
:class:`RRset` groups the records sharing (name, type, class).  RFC 2181
§5.2 requires all members of an RRset to carry the same TTL; :class:`RRset`
enforces that on construction and exposes TTL arithmetic (aging records as
they sit in a cache) used throughout the resolver.

The RRset is the unit everything above the wire codec handles: zones store
them, message sections hold them, caches keep them.  An RRset cannot be
assigned to after construction, so one object is handed from zone to
response to cache entry without a copy.  :class:`ResourceRecord` is what
wire decode validates and what the per-record views (text output, the
crawler's counts) iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from struct import Struct
from typing import Iterable, Iterator

from repro.dns.name import Name
from repro.dns.rdtypes import CLASSES, TYPES, Rdata, RdataClass, RdataType, read_rdata
from repro.dns.ttl import TTL_MAX, validate_ttl
from repro.dns.wire import WireReader, WireWriter


@dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record."""

    name: Name
    rdtype: RdataType
    ttl: int
    rdata: Rdata
    rdclass: RdataClass = RdataClass.IN

    def __post_init__(self) -> None:
        if not isinstance(self.name, Name):
            object.__setattr__(self, "name", Name(self.name))
        validate_ttl(self.ttl)
        if self.rdata.rdtype != self.rdtype:
            raise ValueError(
                f"rdata of type {self.rdata.rdtype.name} in a {self.rdtype.name} record"
            )

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy of this record carrying ``ttl``."""
        return replace(self, ttl=ttl)

    def aged(self, seconds: int) -> "ResourceRecord":
        """A copy aged by ``seconds``, flooring the TTL at zero.

        This is what a cache does when handing out a record it stored
        ``seconds`` ago.
        """
        if seconds < 0:
            raise ValueError(f"cannot age by negative time {seconds}")
        return self.with_ttl(max(0, self.ttl - seconds))

    def key(self) -> tuple[Name, RdataType, RdataClass]:
        return (self.name, self.rdtype, self.rdclass)

    def to_text(self) -> str:
        return (
            f"{self.name} {self.ttl} {self.rdclass.name} "
            f"{self.rdtype.name} {self.rdata.to_text()}"
        )

    def __str__(self) -> str:
        return self.to_text()

    # -- wire -----------------------------------------------------------------
    def to_wire(self, writer: WireWriter) -> None:
        _write_record(writer, self.name, self.rdtype, self.rdclass, self.ttl, self.rdata)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "ResourceRecord":
        return cls.from_wire_body(reader.read_name(), *reader.unpack(RR_FIXED), reader)

    @classmethod
    def from_wire_body(
        cls,
        name: Name,
        type_value: int,
        class_value: int,
        ttl: int,
        rdlength: int,
        reader: WireReader,
    ) -> "ResourceRecord":
        """Finish decoding a record whose name and :data:`RR_FIXED` block
        are already read; a TTL with its top bit set reads as 0 (RFC 2181 §8).

        The message codec looks at the type to divert OPT pseudo-records
        (EDNS, RFC 6891) before they reach the record constructor — an
        OPT's CLASS field is a UDP payload size, not a class.
        """
        rdtype = TYPES[type_value]
        rdata = read_rdata(rdtype, reader, rdlength)
        return cls(
            name, rdtype, ttl if ttl <= TTL_MAX else 0, rdata, CLASSES[class_value]
        )


@dataclass(frozen=True)
class RRset:
    """All records sharing a (name, type, class), with one shared TTL.

    Frozen: a zone answers with the very objects it stores and a cache
    keeps the object it was handed, so "the zone was renumbered but the
    cache still holds the old set" (§4.2 of the paper) is two distinct
    objects, never one that changed under its holders.  Changing a field
    means building a new set (:meth:`with_ttl`, :meth:`merged`).

    >>> from repro.dns.rdtypes import A
    >>> rrset = RRset(Name("example.com"), RdataType.A, 300, [A("192.0.2.1")])
    >>> rrset.ttl
    300
    """

    name: Name
    rdtype: RdataType
    ttl: int
    rdatas: tuple[Rdata, ...] = ()
    rdclass: RdataClass = RdataClass.IN

    def __post_init__(self) -> None:
        if not isinstance(self.name, Name):
            object.__setattr__(self, "name", Name(self.name))
        validate_ttl(self.ttl)
        if type(self.rdatas) is not tuple:
            object.__setattr__(self, "rdatas", tuple(self.rdatas))
        for rdata in self.rdatas:
            if rdata.rdtype != self.rdtype:
                raise ValueError(
                    f"rdata of type {rdata.rdtype.name} in a {self.rdtype.name} RRset"
                )

    def records(self) -> Iterator[ResourceRecord]:
        """The per-record view: one validated record per rdata."""
        for rdata in self.rdatas:
            yield ResourceRecord(
                name=self.name,
                rdtype=self.rdtype,
                ttl=self.ttl,
                rdata=rdata,
                rdclass=self.rdclass,
            )

    def __len__(self) -> int:
        return len(self.rdatas)

    def __iter__(self) -> Iterator[Rdata]:
        return iter(self.rdatas)

    def key(self) -> tuple[Name, RdataType, RdataClass]:
        return (self.name, self.rdtype, self.rdclass)

    @classmethod
    def _build(
        cls,
        name: Name,
        rdtype: RdataType,
        ttl: int,
        rdatas: tuple[Rdata, ...],
        rdclass: RdataClass,
    ) -> "RRset":
        """Trusted constructor: fields come from an already-validated RRset
        (or record group), so ``__post_init__``'s re-checks are skipped.

        The fields go in through the instance dict in one call: the frozen
        ``__init__`` costs a call per field, and the resolver's warm path
        builds one aged set per answered query.
        """
        rrset = object.__new__(cls)
        rrset.__dict__.update(
            name=name, rdtype=rdtype, ttl=ttl, rdatas=rdatas, rdclass=rdclass
        )
        return rrset

    def with_ttl(self, ttl: int) -> "RRset":
        validate_ttl(ttl)
        return RRset._build(self.name, self.rdtype, ttl, self.rdatas, self.rdclass)

    def _aged_to(self, ttl: int) -> "RRset":
        """:meth:`with_ttl` for a caller that has shown ``0 <= ttl <=
        self.ttl``: inside a validated TTL there is nothing to validate,
        so the view is this set's fields with one replaced."""
        view = object.__new__(RRset)
        fields = view.__dict__
        fields.update(self.__dict__)
        fields["ttl"] = ttl
        return view

    def aged(self, seconds: int) -> "RRset":
        if seconds < 0:
            raise ValueError(f"cannot age by negative time {seconds}")
        return self.with_ttl(max(0, self.ttl - seconds))

    def merged(self, other: "RRset") -> "RRset":
        """This set followed by ``other``'s rdatas (same key), at the
        smaller TTL — the :func:`group_rrsets` reading of RFC 2181 §5.2."""
        return RRset._build(
            self.name,
            self.rdtype,
            min(self.ttl, other.ttl),
            self.rdatas + other.rdatas,
            self.rdclass,
        )

    def to_text(self) -> str:
        return "\n".join(record.to_text() for record in self.records())

    def to_wire(self, writer: WireWriter) -> None:
        """Write one wire record per rdata, straight from the set's fields."""
        for rdata in self.rdatas:
            _write_record(writer, self.name, self.rdtype, self.rdclass, self.ttl, rdata)


#: The fixed block between a wire record's owner name and its rdata:
#: TYPE, CLASS, TTL, RDLENGTH.
RR_FIXED = Struct("!HHIH")


def _write_record(
    writer: WireWriter,
    name: Name,
    rdtype: RdataType,
    rdclass: RdataClass,
    ttl: int,
    rdata: Rdata,
) -> None:
    writer.write_name(name)
    writer.pack(RR_FIXED, rdtype, rdclass, ttl, 0)  # RDLENGTH: a placeholder
    writer.write_sized(rdata.to_wire)


def group_rrsets(records: Iterable[ResourceRecord]) -> list[RRset]:
    """Group records into RRsets, preserving first-seen order.

    Mixed TTLs within a set take the *minimum* (the conservative reading
    of RFC 2181 §5.2 that real resolvers apply).
    """
    ordered: dict[tuple[Name, RdataType, RdataClass], list[ResourceRecord]] = {}
    for record in records:
        ordered.setdefault(record.key(), []).append(record)
    rrsets: list[RRset] = []
    for key, members in ordered.items():
        if len(members) == 1:
            record = members[0]
            rrsets.append(
                RRset._build(key[0], key[1], record.ttl, (record.rdata,), key[2])
            )
            continue
        ttl = min(record.ttl for record in members)
        rrsets.append(
            RRset._build(
                key[0],
                key[1],
                ttl,
                tuple(record.rdata for record in members),
                key[2],
            )
        )
    return rrsets
