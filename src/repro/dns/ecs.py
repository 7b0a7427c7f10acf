"""RFC 7871 EDNS Client Subnet (ECS) option.

ECS lets a recursive resolver tell an authoritative server *where the
client is* — the query carries a truncated client prefix (``family``,
``source-prefix``, address bits), and the answer comes back tagged with a
``scope-prefix`` declaring how wide a subnet the answer is valid for.  A
scope of 0 means "this answer is global" and the resolver caches it
normally; a non-zero scope means the answer must only be served to
clients inside the covered subnet (see :mod:`repro.resolver.cache`'s
scoped overlay).

The option rides in the EDNS0 OPT record's ``options`` blob
(:class:`repro.dns.message.Edns`), which this codebase treats as opaque
bytes at the message layer — this module is the layer that gives those
bytes meaning.  Wire format (RFC 7871 §6)::

    +0: OPTION-CODE    (2 octets, 8)
    +2: OPTION-LENGTH  (2 octets)
    +4: FAMILY         (2 octets, 1 = IPv4, 2 = IPv6)
    +6: SOURCE PREFIX-LENGTH (1 octet)
    +7: SCOPE PREFIX-LENGTH  (1 octet)
    +8: ADDRESS        (ceil(source-prefix / 8) octets, trailing bits zero)

Trailing address bits beyond the source prefix MUST be zero; both the
constructor and the parser enforce this, so a :class:`ClientSubnet` is
always in canonical form and safe to use as a dict key.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, replace
from typing import Optional

from repro.dns.wire import WireError

__all__ = [
    "OPTION_CLIENT_SUBNET",
    "FAMILY_IPV4",
    "FAMILY_IPV6",
    "ClientSubnet",
    "extract_client_subnet",
    "replace_client_subnet",
]

#: EDNS option code assigned to Client Subnet (RFC 7871 §6).
OPTION_CLIENT_SUBNET = 8

FAMILY_IPV4 = 1
FAMILY_IPV6 = 2

#: Address width in bits per ECS family.
FAMILY_BITS = {FAMILY_IPV4: 32, FAMILY_IPV6: 128}


@dataclass(frozen=True)
class ClientSubnet:
    """One ECS option payload in canonical (trailing-bits-zero) form.

    ``address`` holds exactly ``ceil(source_prefix / 8)`` octets.  In a
    query ``scope_prefix`` is 0; in a response it is the authoritative
    server's declaration of answer scope.
    """

    family: int
    source_prefix: int
    address: bytes
    scope_prefix: int = 0

    def __post_init__(self) -> None:
        bits = FAMILY_BITS.get(self.family)
        if bits is None:
            raise WireError(f"unsupported ECS family {self.family}")
        if not 0 <= self.source_prefix <= bits:
            raise WireError(
                f"ECS source prefix {self.source_prefix} outside 0..{bits}"
            )
        if not 0 <= self.scope_prefix <= bits:
            raise WireError(
                f"ECS scope prefix {self.scope_prefix} outside 0..{bits}"
            )
        expected = (self.source_prefix + 7) // 8
        if len(self.address) != expected:
            raise WireError(
                f"ECS address is {len(self.address)} octets, "
                f"prefix /{self.source_prefix} needs {expected}"
            )
        if self.address and self.source_prefix % 8:
            mask = 0xFF00 >> (self.source_prefix % 8) & 0xFF
            if self.address[-1] & ~mask & 0xFF:
                raise WireError(
                    "ECS address has nonzero bits past the source prefix"
                )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_ip(cls, ip: str, prefix: int, scope: int = 0) -> "ClientSubnet":
        """Build from a textual IPv4/IPv6 address, truncating to ``prefix``.

        Host bits beyond ``prefix`` are zeroed (RFC 7871 §6 canonical
        form), so ``from_ip("198.18.3.57", 24)`` describes 198.18.3.0/24.
        """
        parsed = ipaddress.ip_address(ip)
        family = FAMILY_IPV4 if parsed.version == 4 else FAMILY_IPV6
        bits = FAMILY_BITS[family]
        if not 0 <= prefix <= bits:
            raise WireError(f"ECS source prefix {prefix} outside 0..{bits}")
        value = int(parsed)
        if prefix < bits:
            value &= ~((1 << (bits - prefix)) - 1) & ((1 << bits) - 1)
        octets = value.to_bytes(bits // 8, "big")[: (prefix + 7) // 8]
        return cls(
            family=family, source_prefix=prefix, address=octets, scope_prefix=scope
        )

    def truncate(self, prefix: int) -> "ClientSubnet":
        """A copy narrowed to ``min(prefix, source_prefix)`` source bits."""
        prefix = min(prefix, self.source_prefix)
        if prefix == self.source_prefix:
            return self
        bits = FAMILY_BITS[self.family]
        value = self.network_bits() & ~((1 << (bits - prefix)) - 1)
        octets = value.to_bytes(bits // 8, "big")[: (prefix + 7) // 8]
        return replace(self, source_prefix=prefix, address=octets)

    def with_scope(self, scope: int) -> "ClientSubnet":
        return replace(self, scope_prefix=scope)

    # -- matching -------------------------------------------------------------
    def network_bits(self) -> int:
        """The address as an integer left-aligned in the family width."""
        bits = FAMILY_BITS[self.family]
        return int.from_bytes(self.address, "big") << (bits - len(self.address) * 8)

    # -- wire -----------------------------------------------------------------
    def to_option_data(self) -> bytes:
        """The option payload (everything after code/length)."""
        return (
            struct.pack(
                ">HBB", self.family, self.source_prefix, self.scope_prefix
            )
            + self.address
        )

    def to_wire(self) -> bytes:
        """The full TLV, ready to append to an OPT ``options`` blob."""
        data = self.to_option_data()
        return struct.pack(">HH", OPTION_CLIENT_SUBNET, len(data)) + data

    @classmethod
    def parse_option_data(cls, data: bytes) -> "ClientSubnet":
        if len(data) < 4:
            raise WireError(f"ECS option body is {len(data)} octets, need >= 4")
        family, source, scope = struct.unpack(">HBB", data[:4])
        return cls(
            family=family,
            source_prefix=source,
            scope_prefix=scope,
            address=data[4:],
        )


def extract_client_subnet(options: bytes) -> Optional[ClientSubnet]:
    """The first ECS option in an OPT ``options`` blob, or ``None``.

    Unknown options are skipped (they belong to other extensions);
    truncated TLVs and malformed ECS payloads raise :class:`WireError` —
    a frontend parsing attacker-controlled bytes must never crash another
    way.
    """
    offset = 0
    length = len(options)
    while offset < length:
        if length - offset < 4:
            raise WireError("truncated EDNS option header")
        code, size = struct.unpack_from(">HH", options, offset)
        offset += 4
        if length - offset < size:
            raise WireError(f"EDNS option {code} overruns the options blob")
        if code == OPTION_CLIENT_SUBNET:
            return ClientSubnet.parse_option_data(options[offset : offset + size])
        offset += size
    return None


def replace_client_subnet(
    options: bytes, subnet: Optional[ClientSubnet]
) -> bytes:
    """``options`` with any ECS TLVs removed and ``subnet`` appended.

    Other options are preserved in order.  Passing ``None`` strips ECS.
    """
    kept = bytearray()
    offset = 0
    length = len(options)
    while offset < length:
        if length - offset < 4:
            raise WireError("truncated EDNS option header")
        code, size = struct.unpack_from(">HH", options, offset)
        if length - offset - 4 < size:
            raise WireError(f"EDNS option {code} overruns the options blob")
        if code != OPTION_CLIENT_SUBNET:
            kept += options[offset : offset + 4 + size]
        offset += 4 + size
    if subnet is not None:
        kept += subnet.to_wire()
    return bytes(kept)
