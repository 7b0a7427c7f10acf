"""RFC 1035 wire-format buffers with name compression.

:class:`WireWriter` and :class:`WireReader` provide the primitive
fixed-layout and domain-name operations that the rdata, record and message
codecs build on.  Adjacent fixed-width fields move as one block
(:meth:`WireReader.unpack` / :meth:`WireWriter.pack` with a ``Struct``
compiled once by the codec that owns the layout); the per-field
``read_u8``/``write_u16``/... are the same call with a one-field layout.
Compression pointers (RFC 1035 §4.1.4) are emitted for repeated names and
are validated on read: successive pointer targets must strictly decrease
and names may not exceed 255 octets, which together guarantee termination
even on hostile input.
"""

from __future__ import annotations

from struct import Struct
from typing import Callable

from repro.dns.name import Name

#: Two high bits set in a label length octet mark a compression pointer.
_POINTER_MASK = 0xC0
#: Maximum offset representable in a 14-bit compression pointer.
_POINTER_MAX_OFFSET = 0x3FFF

MAX_MESSAGE_SIZE = 65535

#: Lone-field layouts.  A codec whose wire form has several adjacent fixed
#: fields compiles its own ``Struct`` once and moves the block in one call.
_U8 = Struct("!B")
_U16 = Struct("!H")
_U32 = Struct("!I")


class WireError(ValueError):
    """Raised for malformed wire data or buffer overruns."""


class WireWriter:
    """An append-only message buffer with name compression."""

    def __init__(self) -> None:
        self._chunks = bytearray()
        # Map from a name's label tuple to the offset of its first encoding.
        self._compression: dict[tuple[str, ...], int] = {}

    def __len__(self) -> int:
        return len(self._chunks)

    def getvalue(self) -> bytes:
        if len(self._chunks) > MAX_MESSAGE_SIZE:
            raise WireError(f"message too large ({len(self._chunks)} octets)")
        return bytes(self._chunks)

    # -- fixed layouts -------------------------------------------------------
    def pack(self, layout: Struct, *values: int) -> None:
        """Append one fixed-layout block: ``values`` packed by ``layout``."""
        self._chunks += layout.pack(*values)

    def write_u8(self, value: int) -> None:
        self.pack(_U8, value)

    def write_u16(self, value: int) -> None:
        self.pack(_U16, value)

    def write_u32(self, value: int) -> None:
        self.pack(_U32, value)

    def write_bytes(self, data: bytes) -> None:
        self._chunks += data

    def write_sized(self, write_body: Callable[["WireWriter"], None]) -> None:
        """Append what ``write_body(self)`` writes and store its size in the
        16-bit field just before it (RDLENGTH, written as a placeholder:
        how long an rdata is depends on how its names compress)."""
        chunks = self._chunks
        start = len(chunks)
        write_body(self)
        _U16.pack_into(chunks, start - 2, len(chunks) - start)

    # -- names ----------------------------------------------------------------
    def write_name(self, name: Name, compress: bool = True) -> None:
        """Write ``name``, emitting a compression pointer when possible."""
        chunks = self._chunks
        offsets = self._compression
        for suffix, encoded in name.wire_labels():
            if compress and suffix in offsets:
                chunks += (_POINTER_MASK << 8 | offsets[suffix]).to_bytes(2, "big")
                return
            offset = len(chunks)
            if offset <= _POINTER_MAX_OFFSET:
                offsets[suffix] = offset
            chunks += encoded
        chunks += b"\x00"  # root label


class WireReader:
    """A cursor over a received message buffer."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._size = len(data)
        self._offset = offset

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def remaining(self) -> int:
        return self._size - self._offset

    # -- fixed layouts -------------------------------------------------------
    def unpack(self, layout: Struct) -> tuple[int, ...]:
        """Read one fixed-layout block: one bounds check, one
        ``layout.unpack_from``, and the cursor moves past the block."""
        start = self._offset
        end = start + layout.size
        if end > self._size:
            raise WireError(
                f"short read: wanted {layout.size}, have {self._size - start}"
            )
        self._offset = end
        return layout.unpack_from(self._data, start)

    def read_u8(self) -> int:
        return self.unpack(_U8)[0]

    def read_u16(self) -> int:
        return self.unpack(_U16)[0]

    def read_u32(self) -> int:
        return self.unpack(_U32)[0]

    def read_bytes(self, count: int) -> bytes:
        start = self._offset
        end = start + count
        # A negative count would step the cursor backwards.
        if count < 0 or end > self._size:
            raise WireError(f"short read: wanted {count}, have {self._size - start}")
        self._offset = end
        return self._data[start:end]

    # -- names ----------------------------------------------------------------
    def read_name(self) -> Name:
        """Read a possibly-compressed name starting at the cursor.

        The cursor is left after the name's encoding at its *original*
        position (pointers are chased in a side excursion).  Each pointer
        must target an offset strictly before the previous pointer's
        target (the first, strictly before the pointer itself).  Checking
        against the *cursor* alone would not terminate: labels advance
        the cursor forward between hops, so ``[label][pointer to that
        label]`` points "backwards" on every hop while looping forever.
        Legitimate encoders always satisfy the stronger rule, because a
        pointer targets a name written earlier whose own pointers target
        names written earlier still.  The RFC 1035 §2.3.4 cap of 255
        octets per name is enforced while reading, bounding the work even
        for hostile input.
        """
        data = self._data
        size = self._size
        labels: list[str] = []
        cursor = self._offset
        end_after: int | None = None
        last_target: int | None = None
        name_octets = 0
        while True:
            if cursor >= size:
                raise WireError("name runs off the end of the message")
            length = data[cursor]
            if length & _POINTER_MASK == _POINTER_MASK:
                if cursor + 1 >= size:
                    raise WireError("truncated compression pointer")
                pointer = ((length & ~_POINTER_MASK) << 8) | data[cursor + 1]
                if pointer >= cursor:
                    raise WireError(f"compression pointer {pointer} does not point backwards")
                if last_target is not None and pointer >= last_target:
                    raise WireError(
                        f"compression pointer {pointer} does not precede "
                        f"the previous pointer's target {last_target}"
                    )
                if end_after is None:
                    end_after = cursor + 2
                last_target = pointer
                cursor = pointer
                continue
            if length & _POINTER_MASK:
                raise WireError(f"reserved label type 0x{length & _POINTER_MASK:02x}")
            cursor += 1
            if length == 0:
                break
            name_octets += 1 + length
            if name_octets > 254:  # 255 including the terminating root octet
                raise WireError("name exceeds the 255-octet limit")
            if cursor + length > size:
                raise WireError("label runs off the end of the message")
            raw = data[cursor : cursor + length]
            try:
                labels.append(raw.decode("ascii").lower())
            except UnicodeDecodeError as exc:
                raise WireError(f"non-ASCII label on the wire: {raw!r}") from exc
            cursor += length
        self._offset = end_after if end_after is not None else cursor
        # Label and name lengths were enforced octet-by-octet above, and the
        # labels are lowercased: the trusted constructor applies, skipping a
        # second validation pass per decoded name.
        return Name.from_labels(tuple(labels))
