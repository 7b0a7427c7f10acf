"""Tests for repro.net.topology."""

import pytest

from repro.net.topology import (
    ATLAS_REGION_WEIGHTS,
    AddressAllocator,
    Region,
    Topology,
)


class TestAddressAllocator:
    def test_unique_addresses(self):
        allocator = AddressAllocator()
        addresses = [allocator.allocate() for _ in range(1000)]
        assert len(set(addresses)) == 1000

    def test_addresses_are_valid_ipv4(self):
        import ipaddress

        allocator = AddressAllocator()
        for _ in range(10):
            ipaddress.IPv4Address(allocator.allocate())


class TestTopology:
    def test_deterministic_by_seed(self):
        a = Topology(seed=7)
        b = Topology(seed=7)
        ea = [a.create_endpoint().address for _ in range(20)]
        eb = [b.create_endpoint().address for _ in range(20)]
        ra = [e.region for e in a.endpoints]
        rb = [e.region for e in b.endpoints]
        assert ea == eb and ra == rb

    def test_create_as_assigns_unique_asns(self):
        topology = Topology()
        ases = topology.create_ases(10)
        assert len({a.asn for a in ases}) == 10

    def test_endpoint_inherits_as_region(self):
        topology = Topology()
        autonomous_system = topology.create_as(Region.OC)
        endpoint = topology.create_endpoint(autonomous_system)
        assert endpoint.region is Region.OC
        assert endpoint.asn == autonomous_system.asn

    def test_endpoint_in_region(self):
        endpoint = Topology().endpoint_in_region(Region.AF, name="srv")
        assert endpoint.region is Region.AF
        assert endpoint.name == "srv"

    def test_region_weights_skew_europe(self):
        # The Atlas population is Europe-heavy (paper §7).
        topology = Topology(seed=0)
        regions = [topology.pick_region() for _ in range(2000)]
        eu_share = sum(1 for r in regions if r is Region.EU) / len(regions)
        assert 0.45 < eu_share < 0.65

    def test_custom_weights(self):
        topology = Topology(seed=0, region_weights={Region.SA: 1.0})
        assert all(topology.pick_region() is Region.SA for _ in range(10))

    def test_atlas_weights_sum_to_one(self):
        assert abs(sum(ATLAS_REGION_WEIGHTS.values()) - 1.0) < 1e-9

    def test_str_forms(self):
        topology = Topology()
        endpoint = topology.create_endpoint(name="thing")
        assert str(endpoint) == "thing"
        assert str(topology.ases[0]).startswith("AS")
