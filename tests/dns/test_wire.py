"""Tests for repro.dns.wire (buffers, compression, malformed input)."""

from struct import Struct

import pytest

from repro.dns.name import Name
from repro.dns.wire import WireError, WireReader, WireWriter


class TestIntegers:
    def test_u8_round_trip(self):
        writer = WireWriter()
        writer.write_u8(0xAB)
        assert WireReader(writer.getvalue()).read_u8() == 0xAB

    def test_u16_round_trip(self):
        writer = WireWriter()
        writer.write_u16(0xBEEF)
        assert WireReader(writer.getvalue()).read_u16() == 0xBEEF

    def test_u32_round_trip(self):
        writer = WireWriter()
        writer.write_u32(0xDEADBEEF)
        assert WireReader(writer.getvalue()).read_u32() == 0xDEADBEEF

    def test_network_byte_order(self):
        writer = WireWriter()
        writer.write_u16(0x0102)
        assert writer.getvalue() == b"\x01\x02"

    def test_write_sized_fills_the_length_before_the_body(self):
        writer = WireWriter()
        writer.write_u16(0)
        writer.write_sized(lambda body: body.write_bytes(b"x" * 42))
        assert WireReader(writer.getvalue()).read_u16() == 42

    def test_short_read_raises(self):
        with pytest.raises(WireError):
            WireReader(b"\x01").read_u16()


class TestBlocks:
    """A fixed layout moves as one block: one bounds check, one struct call."""

    LAYOUT = Struct("!HBI")

    def test_pack_unpack_round_trip(self):
        writer = WireWriter()
        writer.pack(self.LAYOUT, 0xBEEF, 7, 0xDEADBEEF)
        assert writer.getvalue() == b"\xbe\xef\x07\xde\xad\xbe\xef"
        reader = WireReader(writer.getvalue() + b"\x01")
        assert reader.unpack(self.LAYOUT) == (0xBEEF, 7, 0xDEADBEEF)
        assert (reader.offset, reader.remaining) == (7, 1)

    def test_short_block_is_a_wire_error_and_reads_nothing(self):
        reader = WireReader(b"\x00" * 6)
        with pytest.raises(WireError):
            reader.unpack(self.LAYOUT)
        assert reader.offset == 0

    def test_negative_byte_count_rejected(self):
        """``read_bytes(-2)`` used to step the cursor two octets back."""
        reader = WireReader(b"abcd", offset=3)
        with pytest.raises(WireError):
            reader.read_bytes(-2)
        assert reader.offset == 3


class TestNames:
    def round_trip(self, *names, compress=True):
        writer = WireWriter()
        for name in names:
            writer.write_name(Name(name), compress=compress)
        reader = WireReader(writer.getvalue())
        return [reader.read_name() for _ in names], writer.getvalue()

    def test_simple_round_trip(self):
        decoded, _ = self.round_trip("www.example.com")
        assert decoded == [Name("www.example.com")]

    def test_root_is_single_null(self):
        writer = WireWriter()
        writer.write_name(Name(""))
        assert writer.getvalue() == b"\x00"

    def test_compression_shrinks_repeats(self):
        _, compressed = self.round_trip("www.example.com", "example.com")
        _, uncompressed = self.round_trip(
            "www.example.com", "example.com", compress=False
        )
        assert len(compressed) < len(uncompressed)

    def test_compressed_names_decode(self):
        decoded, _ = self.round_trip(
            "www.example.com", "example.com", "mail.example.com"
        )
        assert decoded == [
            Name("www.example.com"), Name("example.com"), Name("mail.example.com")
        ]

    def test_partial_suffix_compression(self):
        decoded, _ = self.round_trip("a.b.c.d", "x.c.d")
        assert decoded == [Name("a.b.c.d"), Name("x.c.d")]

    def test_cursor_past_pointer(self):
        writer = WireWriter()
        writer.write_name(Name("example.com"))
        writer.write_name(Name("example.com"))
        writer.write_u16(0x1234)
        reader = WireReader(writer.getvalue())
        reader.read_name()
        reader.read_name()
        assert reader.read_u16() == 0x1234

    def test_forward_pointer_rejected(self):
        # A pointer at offset 0 pointing to offset 10 (forwards).
        blob = b"\xc0\x0a" + b"\x00" * 12
        with pytest.raises(WireError):
            WireReader(blob).read_name()

    def test_self_pointer_rejected(self):
        blob = b"\xc0\x00"
        with pytest.raises(WireError):
            WireReader(blob).read_name()

    def test_truncated_pointer_rejected(self):
        with pytest.raises(WireError):
            WireReader(b"\xc0").read_name()

    def test_truncated_label_rejected(self):
        with pytest.raises(WireError):
            WireReader(b"\x05ab").read_name()

    def test_unterminated_name_rejected(self):
        with pytest.raises(WireError):
            WireReader(b"\x01a").read_name()

    def test_reserved_label_type_rejected(self):
        with pytest.raises(WireError):
            WireReader(b"\x40a").read_name()

    def test_label_pointer_loop_rejected(self):
        # Label "a" followed by a pointer back to that same label.  Each
        # hop moves the cursor forward through the label and then
        # "backwards" to it again, so a backwards-only check loops
        # forever; successive pointer targets must strictly decrease.
        blob = b"\x01a\xc0\x00"
        with pytest.raises(WireError):
            WireReader(blob).read_name()

    def test_mutual_pointer_loop_rejected(self):
        # Reading from the second label walks b -> pointer -> a -> b ->
        # pointer -> ... — every hop backwards relative to the cursor,
        # yet circular.
        blob = b"\x01a\x01b\xc0\x00"
        with pytest.raises(WireError):
            WireReader(blob, 2).read_name()

    def test_legitimate_pointer_chain_still_decodes(self):
        # A chain of names each ending in a pointer to an earlier one —
        # exactly what WireWriter emits — must keep decoding.
        writer = WireWriter()
        writer.write_name(Name("example.com"))
        offset_b = len(writer)
        writer.write_name(Name("www.example.com"))
        offset_c = len(writer)
        writer.write_name(Name("deep.www.example.com"))
        blob = writer.getvalue()
        assert WireReader(blob, offset_b).read_name() == Name("www.example.com")
        assert WireReader(blob, offset_c).read_name() == Name("deep.www.example.com")

    def test_name_over_255_octets_rejected(self):
        # Four 63-octet labels = 256 octets of label data: over the RFC
        # 1035 §2.3.4 cap, and rejected while reading (the cap is what
        # bounds decompression work on hostile input).
        blob = (b"\x3f" + b"a" * 63) * 4 + b"\x00"
        with pytest.raises(WireError):
            WireReader(blob).read_name()


class TestReaderCursor:
    def test_remaining(self):
        reader = WireReader(b"abcd", offset=1)
        assert reader.remaining == 3
