"""RFC 7871 ECS option codec: round-trips, §6 canonical form, rejects.

The property tests sweep both families and every legal prefix length;
the reject tests pin each validation clause in
:class:`repro.dns.ecs.ClientSubnet`.  The differential test at the end
is the byte-identity contract: scope-0 (global) answers must leave a
resolver's cache and metrics indistinguishable from an ECS-disabled run.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.ecs import (
    FAMILY_IPV4,
    FAMILY_IPV6,
    OPTION_CLIENT_SUBNET,
    ClientSubnet,
    extract_client_subnet,
    replace_client_subnet,
)
from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.dns.wire import WireError

v4_addresses = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n))
)
v6_addresses = st.integers(min_value=0, max_value=2**128 - 1).map(
    lambda n: str(ipaddress.IPv6Address(n))
)


# -- round-trips -------------------------------------------------------------
@settings(max_examples=200)
@given(v4_addresses, st.integers(min_value=0, max_value=32))
def test_v4_round_trip(ip, prefix):
    subnet = ClientSubnet.from_ip(ip, prefix)
    assert subnet.family == FAMILY_IPV4
    assert subnet.source_prefix == prefix
    assert len(subnet.address) == (prefix + 7) // 8
    parsed = ClientSubnet.parse_option_data(subnet.to_option_data())
    assert parsed == subnet
    assert extract_client_subnet(subnet.to_wire()) == subnet


@settings(max_examples=200)
@given(v6_addresses, st.integers(min_value=0, max_value=128))
def test_v6_round_trip(ip, prefix):
    subnet = ClientSubnet.from_ip(ip, prefix)
    assert subnet.family == FAMILY_IPV6
    assert len(subnet.address) == (prefix + 7) // 8
    assert ClientSubnet.parse_option_data(subnet.to_option_data()) == subnet


@settings(max_examples=200)
@given(v4_addresses, st.integers(min_value=0, max_value=32),
       st.integers(min_value=0, max_value=32))
def test_v4_scope_survives_the_wire(ip, prefix, scope):
    subnet = ClientSubnet.from_ip(ip, prefix, scope=scope)
    assert extract_client_subnet(subnet.to_wire()).scope_prefix == scope


@settings(max_examples=200)
@given(v4_addresses, st.integers(min_value=0, max_value=32))
def test_truncation_is_canonical(ip, prefix):
    """§6: address bits past the source prefix are zero on the wire."""
    subnet = ClientSubnet.from_ip(ip, prefix)
    network = ipaddress.ip_network(f"{ip}/{prefix}", strict=False)
    padded = subnet.address + b"\x00" * (4 - len(subnet.address))
    assert ipaddress.ip_address(padded) == network.network_address
    # Re-validating the canonical bytes must never raise.
    ClientSubnet(FAMILY_IPV4, prefix, subnet.address)


@settings(max_examples=100)
@given(v4_addresses, st.integers(min_value=0, max_value=32),
       st.integers(min_value=0, max_value=32))
def test_truncate_narrows_and_is_idempotent(ip, prefix, narrower):
    subnet = ClientSubnet.from_ip(ip, prefix)
    cut = subnet.truncate(narrower)
    assert cut.source_prefix == min(prefix, narrower)
    assert cut.truncate(narrower) == cut
    # The narrowed subnet agrees with the original on its own leading bits.
    shift = 32 - cut.source_prefix
    assert cut.network_bits() >> shift == subnet.network_bits() >> shift


@settings(max_examples=100)
@given(v4_addresses, st.integers(min_value=0, max_value=32))
def test_option_rides_a_real_message(ip, prefix):
    query = Message.make_query("www.cdn.example", RdataType.A, id=0x7871)
    query.use_edns(options=ClientSubnet.from_ip(ip, prefix).to_wire())
    decoded = Message.from_wire(query.to_wire())
    assert extract_client_subnet(decoded.edns.options) == ClientSubnet.from_ip(
        ip, prefix
    )


# -- rejects -----------------------------------------------------------------
def test_rejects_unknown_family():
    with pytest.raises(WireError):
        ClientSubnet(family=3, source_prefix=0, address=b"")


def test_rejects_prefix_out_of_range():
    with pytest.raises(WireError):
        ClientSubnet(FAMILY_IPV4, 33, b"\x00" * 5)
    with pytest.raises(WireError):
        ClientSubnet(FAMILY_IPV6, 129, b"\x00" * 17)
    with pytest.raises(WireError):
        ClientSubnet(FAMILY_IPV4, 24, b"\xc0\x00\x02", scope_prefix=33)


def test_rejects_wrong_address_length():
    with pytest.raises(WireError):
        ClientSubnet(FAMILY_IPV4, 24, b"\xc0\x00")  # /24 needs 3 octets
    with pytest.raises(WireError):
        ClientSubnet(FAMILY_IPV4, 24, b"\xc0\x00\x02\x01")  # one too many


def test_rejects_nonzero_trailing_bits():
    # /20 with a nonzero low nibble in the third octet violates §6.
    with pytest.raises(WireError):
        ClientSubnet(FAMILY_IPV4, 20, b"\xc0\x00\x0f")
    ClientSubnet(FAMILY_IPV4, 20, b"\xc0\x00\xf0")  # high nibble is fine


def test_rejects_truncated_option_body():
    with pytest.raises(WireError):
        ClientSubnet.parse_option_data(b"\x00\x01\x18")


def test_rejects_truncated_tlv():
    subnet = ClientSubnet.from_ip("192.0.2.0", 24)
    with pytest.raises(WireError):
        extract_client_subnet(subnet.to_wire()[:-1])


@given(st.binary(max_size=64))
def test_random_option_blobs_never_crash(blob):
    try:
        extract_client_subnet(blob)
    except WireError:
        pass


# -- blob surgery ------------------------------------------------------------
def test_extract_skips_unknown_options():
    cookie = b"\x00\x0a\x00\x08" + b"\x01" * 8  # EDNS cookie (code 10)
    subnet = ClientSubnet.from_ip("198.18.0.0", 24)
    assert extract_client_subnet(cookie + subnet.to_wire()) == subnet
    assert extract_client_subnet(cookie) is None
    assert extract_client_subnet(b"") is None


def test_replace_preserves_other_options():
    cookie = b"\x00\x0a\x00\x08" + b"\x01" * 8
    old = ClientSubnet.from_ip("198.18.0.0", 24)
    new = ClientSubnet.from_ip("203.0.113.0", 24)
    blob = replace_client_subnet(cookie + old.to_wire(), new)
    assert blob.startswith(cookie)
    assert extract_client_subnet(blob) == new
    assert replace_client_subnet(blob, None) == cookie


# -- differential: scope 0 must equal ECS-off --------------------------------
def test_scope_zero_cache_is_byte_identical_to_ecs_disabled():
    """A world whose authoritatives never echo ECS: resolving with ECS
    armed must leave cache contents and the metrics JSON byte-identical
    to a resolver with ECS disabled (the acceptance contract)."""
    from repro.core.worlds import build_hotset_world
    from repro.metrics import MetricsRegistry
    from repro.net.topology import Region
    from repro.resolver.policy import ResolverPolicy
    from repro.resolver.recursive import RecursiveResolver

    def run(ecs: bool):
        registry = MetricsRegistry()
        hotset = build_hotset_world(300, seed=7, names=4)
        hotset.world.network.attach_metrics(registry)
        policy = ResolverPolicy.child_centric()
        if ecs:
            policy = policy.with_(ecs=True)
        resolver = RecursiveResolver(
            endpoint=hotset.world.topology.endpoint_in_region(Region.EU, "res"),
            network=hotset.world.network,
            root_hints=hotset.world.hints,
            policy=policy,
        )
        subnet = ClientSubnet.from_ip("198.18.0.0", 24)
        results = []
        for step, qname in enumerate(hotset.qnames * 2):
            out = resolver.resolve(
                qname, RdataType.A, now=float(step),
                client_subnet=subnet if ecs else None,
            )
            results.append((str(qname), out.rcode, out.cache_hit, out.ecs_scope))
            assert out.ecs_scope in (None, 0)
        cache = resolver.cache
        dump = sorted(
            (str(key), entry.rrset, entry.expires_at)
            for key, entry in cache._entries.items()
        )
        assert cache.ecs_scoped_len() == 0
        return results, dump, registry.snapshot().to_json(include_host=False)

    plain_results, plain_dump, plain_json = run(ecs=False)
    ecs_results, ecs_dump, ecs_json = run(ecs=True)
    assert [r[:3] for r in ecs_results] == [r[:3] for r in plain_results]
    assert ecs_dump == plain_dump
    assert ecs_json == plain_json
