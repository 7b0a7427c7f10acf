"""Differential pin on the wire codec: what every input decodes to.

The codec under ``repro.dns`` was rewritten from one call per integer to
one ``struct`` block per fixed layout, and the per-integer code deleted.
This file is the oracle that let it go.  For every blob of the corpus in
``tests/dns/data``, every truncation of it and a fixed grid of single-byte
mutations, the *outcome* of ``Message.from_wire`` — clean decode,
``WireError`` or ``ValueError``; the ``repr`` of the decoded message; its
re-encoded bytes — is hashed, and the hash per blob must equal the one
**recorded with the per-integer codec** (commit ``f00e1de``).  Any other
exception type fails the test outright: the live frontend catches only
those two.

Print the table for the current tree with
``PYTHONPATH=src python tests/dns/test_codec_outcomes.py``.
"""

import hashlib
import pathlib

import pytest

from repro.dns.message import Message
from repro.dns.wire import WireError

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: Values written over each octet in turn: the label-type and pointer bits,
#: the type codes with their own decode branch (SOA 6, MX 15, OPT 41,
#: RRSIG 46, DNSKEY 48), and both ends of the octet.
MUTATION_VALUES = (0x00, 0x01, 0x06, 0x0F, 0x29, 0x2E, 0x30, 0x40, 0x80, 0xC0, 0xFF)

#: sha256 per blob over (whole blob, truncations, mutation grid), recorded
#: at f00e1de.
RECORDED = {
    "reject_ecs_opt_overrun.bin": "510ef53298123c291b2f08dce96b78a64531ccd39e740fb3f105a47b6bdec1f0",
    "reject_empty_body.bin": "eceadcc5df73d524f43e7858d374947e8fd3999b23520c88238336733bc1ff32",
    "reject_name_too_long.bin": "ed3a22c1062a2a62148548bd8eb8a1561ae7487e54dec83cae7e86165be6462c",
    "reject_pointer_forward.bin": "b37f9d3b94a59041f2ed5c2799659550a1094d0f21b6b78f3a7ae16f69f439bc",
    "reject_pointer_loop_mutual.bin": "7f30ff0d3423b869e32f79e8bd4b035650e0493c8cfd33e578a0dbbd92ea3bf3",
    "reject_pointer_self.bin": "8a13248cadac1f9e93358ce3bc4f62df84aaa2e49231649b97e38953f405c085",
    "reject_pointer_stall.bin": "fec5d3d1627f57b935cf078b6f7eb29149b3f0887a94d57daa52406bc7cd2d4a",
    "reject_reserved_label_type.bin": "d220c4c8c812a81ba0c9a2f933ba5fc25ba033150ef56196a47fc94c23a2e6e6",
    "reject_rrsig_signer_overrun.bin": "2a3a11bb36256458ce0c34cd03d40478f6007fbab7ace3e61df4aee11c9f39f6",
    "reject_truncated_pointer.bin": "032b530fb95106818b0e4a0bc197908cc37cdc7326bc0b4fe88a9196f3cb13dd",
    "reject_truncated_question.bin": "4160e1714f4bec05719f089227256912915262029b5b0d4315fa32a09b5b706d",
    "valid_compressed_names.bin": "390731d529f7c95c169d7b6e3104f33faedfb31a2a4426d69cb4f0370b8e1c23",
    "valid_ecs_query.bin": "7eb6edbb9f7a0ae3a74c349844ca5f00896ca4543e0778b86bcfc67f1c5657b3",
    "valid_ecs_v6_scoped.bin": "80f3ab7c262ecdf7ec547b5a9b38a8c32b56ec9027391719c0edb978019fd025",
    "valid_every_rdata.bin": "83880c01a4ef16ccad30ab3e00cc6eaff273a975565f627374fe6d3b34470f51",
    "valid_interleaved_rrset.bin": "02826e3d9a0645ebb288f37369d6908a359718826d3b010310699f03a0aa5cb3",
    "valid_response.bin": "e1fb2c6586e152122a12288ff1f19350f64ee47d104e4ff473bfa51bb14787ee",
}

#: The one intended change of behaviour: an RRSIG whose signer name runs
#: past its RDLENGTH used to be accepted (the negative-length signature
#: read stepped the cursor *back*); it is now a ``WireError``.  These blobs
#: have such inputs among their mutations (a type octet becoming 0x2E makes
#: any record an RRSIG).  The value is the hash with the fix in place; the
#: comment counts the inputs whose outcome moved, every one of them to
#: ``WireError("RRSIG signer name runs past RDLENGTH")`` (checked input by
#: input against f00e1de when the fix was made; the other 15603 agree).
RRSIG_OVERRUN_FIX = {
    "reject_rrsig_signer_overrun.bin": "96c2b6a6cc94e5de8f0513d495cab0c8006a30b1a7b3f66188207a6c0d357110",  # 462
    "valid_compressed_names.bin": "5fe1a01bb13efee743b47211c64e2c86297f649607e5efa5668ea6c8ce8500d8",  # 4
    "valid_every_rdata.bin": "0c41f75df66a09565f7d9656756ceb9c3ac7d7920bab39f231c5d53ed12d1497",  # 1
    "valid_interleaved_rrset.bin": "ee5b193c67a9e2520b65c6a425b7ac3a8253d6f4ce85bd9bc70be3b40eb98070",  # 1
}

#: The second intended change: a record TTL with its top bit set used to
#: raise ``TTLError`` (a ``ValueError``); RFC 2181 §8 reads it as 0.  The
#: value is the hash with both fixes in place; the comment counts the
#: inputs whose outcome moved from ``ValueError`` (each a ``TTLError``
#: before the fix, checked input by input): to a clean decode carrying
#: TTL 0, or to a ``WireError`` further on that the ``TTLError`` had cut
#: short.  Every other input agrees.
RFC2181_TTL_FIX = {
    "valid_compressed_names.bin": "d654b65a74dd82b61a61e0245994dc6658f00dea4e2489d7d7151bc1f5221f83",  # 24 ok, 1 WireError
    "valid_ecs_v6_scoped.bin": "e2957d849f0b02987c3e03a0eb74face90f8d77e63a6b2a9c3ca16e5d1527467",  # 3 ok, 1 WireError
    "valid_every_rdata.bin": "eee750adc1278d851688c546d5e9e823777ac1a2ecd771b2f704abc3de337900",  # 27 ok
    "valid_interleaved_rrset.bin": "18d411f66b1e033ba6003e1f8d584390c121d2618ecf4c51f24d80959a2d53ab",  # 12 ok
    "valid_response.bin": "91ad3134ed85f795db6621a29ce37ab2381bc77514bee15d30a1ac79be9360e3",  # 6 ok
}


def outcome(blob: bytes) -> bytes:
    """One input's observable behaviour, as bytes to hash."""
    try:
        message = Message.from_wire(blob)
    except WireError:
        return b"WireError"
    except ValueError:
        return b"ValueError"
    # Whatever decodes must re-encode: an exception here fails the test.
    return b"ok\0" + repr(message).encode() + b"\0" + message.to_wire()


def inputs(blob: bytes):
    yield blob
    for cut in range(len(blob)):
        yield blob[:cut]
    for position in range(len(blob)):
        for value in MUTATION_VALUES:
            if blob[position] != value:
                yield blob[:position] + bytes([value]) + blob[position + 1 :]


def digest(blob: bytes) -> str:
    sha = hashlib.sha256()
    for candidate in inputs(blob):
        result = outcome(candidate)
        sha.update(len(result).to_bytes(4, "big") + result)
    return sha.hexdigest()


CORPUS = sorted(DATA_DIR.glob("*.bin"))


def test_every_corpus_blob_is_pinned():
    assert {path.name for path in CORPUS} == set(RECORDED)
    assert set(RRSIG_OVERRUN_FIX) | set(RFC2181_TTL_FIX) <= set(RECORDED)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_outcomes_match_the_per_integer_codec(path):
    expected = RFC2181_TTL_FIX.get(path.name) or RRSIG_OVERRUN_FIX.get(
        path.name, RECORDED[path.name]
    )
    assert digest(path.read_bytes()) == expected


if __name__ == "__main__":
    for path in CORPUS:
        print(f'    "{path.name}": "{digest(path.read_bytes())}",')
