"""Wire-format regression corpus + encode/decode round-trip fuzz.

The corpus under ``tests/dns/data/`` pins the compression-pointer-loop
fix: every blob — valid or hostile — must make ``Message.from_wire``
*terminate*, either with a clean parse or with ``WireError`` /
``ValueError``.  The ``reject_pointer_*`` blobs are exactly the inputs a
decoder without the strictly-decreasing-pointer rule chases forever, so
running this file at all is the regression test.  Regenerate blobs with
``PYTHONPATH=src python tests/dns/data/gen_corpus.py``.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Message, Section
from repro.dns.wire import WireError

DATA_DIR = pathlib.Path(__file__).parent / "data"
CORPUS = sorted(DATA_DIR.glob("*.bin"))


def test_corpus_is_present():
    names = {path.name for path in CORPUS}
    # The historical reproducer must never silently vanish from the set.
    assert "reject_pointer_loop_mutual.bin" in names
    assert any(name.startswith("valid_") for name in names)
    assert len(CORPUS) >= 8


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_every_corpus_blob_terminates(path):
    """Decode must terminate on every blob: parse cleanly or fail cleanly."""
    blob = path.read_bytes()
    try:
        decoded = Message.from_wire(blob)
    except (WireError, ValueError):
        assert path.name.startswith("reject_"), (
            f"{path.name}: a valid_* blob failed to decode"
        )
        return
    assert path.name.startswith("valid_"), (
        f"{path.name}: a reject_* blob decoded without error"
    )
    decoded.to_wire()  # whatever decodes must re-encode without crashing


@pytest.mark.parametrize(
    "path",
    [p for p in CORPUS if p.name.startswith("valid_")],
    ids=lambda p: p.name,
)
def test_valid_blobs_round_trip(path):
    """Decode → encode → decode is a fixed point for the valid blobs."""
    first = Message.from_wire(path.read_bytes())
    second = Message.from_wire(first.to_wire())
    assert second.id == first.id
    assert second.rcode == first.rcode
    assert second.question == first.question
    for section in (Section.ANSWER, Section.AUTHORITY, Section.ADDITIONAL):
        assert second.section(section) == first.section(section)


def test_interleaved_records_decode_into_one_rrset_per_key():
    """Sections hold RRsets, so decode is where wire order stops mattering:
    A, AAAA, A, AAAA with A TTLs 300 and 120 becomes [A x2 @ 120, AAAA x2]."""
    from repro.dns.rdtypes import AAAA, A, RdataType

    decoded = Message.from_wire((DATA_DIR / "valid_interleaved_rrset.bin").read_bytes())
    a_set, aaaa_set = decoded.answer
    assert (a_set.rdtype, a_set.ttl) == (RdataType.A, 120)  # minimum of 300, 120
    assert a_set.rdatas == (A("192.0.2.1"), A("192.0.2.2"))
    assert (aaaa_set.rdtype, aaaa_set.ttl) == (RdataType.AAAA, 600)
    assert aaaa_set.rdatas == (AAAA("2001:db8::1"), AAAA("2001:db8::2"))
    assert a_set.name is aaaa_set.name == decoded.question.qname
    # The per-record view still counts four records, now grouped.
    assert [r.rdtype for r in decoded.records(Section.ANSWER)] == [
        RdataType.A, RdataType.A, RdataType.AAAA, RdataType.AAAA,
    ]


def test_rrsig_signer_overrunning_its_rdlength_is_rejected():
    """RDLENGTH 18 ends the RRSIG right after its key tag, yet a signer
    name follows.  The signature read used to take ``end - offset`` = -3
    octets, which stepped the cursor back to ``end``; the consumed-octets
    check passed and the signer's bytes were decoded again as the owner of
    a second record."""
    from repro.dns.rdtypes import RdataType, read_rdata
    from repro.dns.wire import WireReader

    blob = (DATA_DIR / "reject_rrsig_signer_overrun.bin").read_bytes()
    with pytest.raises(WireError, match="RRSIG signer"):
        Message.from_wire(blob)
    rdata = blob[31:]  # past header, question, owner pointer and fixed block
    with pytest.raises(WireError, match="RRSIG signer"):
        read_rdata(RdataType.RRSIG, WireReader(rdata), 18)
    # One more octet of RDLENGTH than the signer needs is a signature.
    assert read_rdata(RdataType.RRSIG, WireReader(rdata), 22).signature == b"\x00"


@settings(max_examples=200)
@given(
    st.sampled_from([p for p in CORPUS if p.name.startswith("reject_")]),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=300),
)
def test_mutated_hostile_blobs_still_terminate(path, value, position):
    """Single-byte mutations of the hostile corpus cannot re-open a loop."""
    blob = bytearray(path.read_bytes())
    blob[position % len(blob)] = value
    try:
        Message.from_wire(bytes(blob))
    except (WireError, ValueError):
        pass


@settings(max_examples=100)
@given(st.binary(min_size=12, max_size=64))
def test_pointer_heavy_random_bodies_terminate(body):
    """Random bodies salted with pointer octets: the worst case for a
    decoder without the backwards-only rule."""
    salted = bytes(
        0xC0 if index % 3 == 0 else byte for index, byte in enumerate(body)
    )
    blob = bytes.fromhex("123401000001000000000000") + salted
    try:
        Message.from_wire(blob)
    except (WireError, ValueError):
        pass
