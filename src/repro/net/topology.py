"""Topology: regions, autonomous systems and endpoints.

The RIPE Atlas population is described in the paper by region (Figure 10b
uses AF/AS/EU/NA/OC/SA) and by AS (~3.3k ASes hosting ~10k probes, a third
of them hosting several vantage points).  We model just enough structure to
reproduce those breakdowns: every endpoint belongs to an AS, every AS to a
region, and addresses are unique IPv4 strings handed out by an allocator.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import random


class Region(enum.Enum):
    """Continental regions, matching the paper's Figure 10b buckets."""

    AF = "Africa"
    AS = "Asia"
    EU = "Europe"
    NA = "North America"
    OC = "Oceania"
    SA = "South America"


#: RIPE Atlas probe distribution is skewed toward Europe (paper §7,
#: "Ripe Atlas" related work).  These weights drive probe placement.
ATLAS_REGION_WEIGHTS: dict[Region, float] = {
    Region.EU: 0.55,
    Region.NA: 0.18,
    Region.AS: 0.12,
    Region.SA: 0.06,
    Region.OC: 0.05,
    Region.AF: 0.04,
}


@dataclass(frozen=True)
class AutonomousSystem:
    """An AS: a routing domain hosting endpoints, pinned to one region."""

    asn: int
    region: Region

    def __str__(self) -> str:
        return f"AS{self.asn}"


@dataclass(frozen=True)
class Endpoint:
    """An addressed host in the simulation."""

    address: str
    region: Region
    asn: int
    name: str = ""

    def __str__(self) -> str:
        return self.label

    @cached_property
    def label(self) -> str:
        """How metrics and logs name the endpoint, computed once."""
        return self.name or self.address


class AddressAllocator:
    """Hands out unique IPv4 addresses from a documentation-style pool.

    Uses 10.0.0.0/8 internally, giving ~16M distinct endpoints — far more
    than the largest experiment (the scaled .nl passive study) needs.
    """

    def __init__(self, base: str = "10.0.0.0") -> None:
        self._next = int(ipaddress.IPv4Address(base)) + 1
        self._limit = int(ipaddress.IPv4Address(base)) + 2**24 - 2

    def allocate(self) -> str:
        if self._next > self._limit:
            raise RuntimeError("address pool exhausted")
        address = str(ipaddress.IPv4Address(self._next))
        self._next += 1
        return address

    def mark(self) -> int:
        """The allocator's position, for :meth:`reset_to`."""
        return self._next

    def reset_to(self, mark: int) -> None:
        """Rewind to a previously captured :meth:`mark`."""
        if mark > self._next:
            raise ValueError(f"allocator mark {mark} is ahead of position {self._next}")
        self._next = mark


@dataclass(frozen=True)
class TopologyMark:
    """A rewind point for :meth:`Topology.reset_to` (world baselines)."""

    ases: int
    endpoints: int
    next_asn: int
    allocator: int


class Topology:
    """A population of ASes and endpoints with regional weighting."""

    def __init__(
        self,
        seed: int = 0,
        region_weights: Optional[dict[Region, float]] = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._weights = dict(region_weights or ATLAS_REGION_WEIGHTS)
        total = sum(self._weights.values())
        self._weights = {region: weight / total for region, weight in self._weights.items()}
        self._allocator = AddressAllocator()
        self._ases: list[AutonomousSystem] = []
        self._endpoints: list[Endpoint] = []
        self._next_asn = 64512  # private ASN range

    def mark(self) -> TopologyMark:
        """Capture the current population extent, for :meth:`reset_to`."""
        return TopologyMark(
            ases=len(self._ases),
            endpoints=len(self._endpoints),
            next_asn=self._next_asn,
            allocator=self._allocator.mark(),
        )

    def reset_to(self, mark: TopologyMark, seed: int) -> None:
        """Rewind to ``mark`` and reseed the placement RNG.

        World builders create every AS/endpoint with an *explicit*
        region, so the RNG is never drawn during construction — which is
        what makes "reset a cached world to a new seed" exactly
        equivalent to "rebuild the world from that seed": the structural
        state rewinds to the baseline and the RNG restarts from the same
        state a fresh ``Topology(seed)`` would have.
        """
        if mark.ases > len(self._ases) or mark.endpoints > len(self._endpoints):
            raise ValueError("topology mark is ahead of the current population")
        self._rng = random.Random(seed)
        del self._ases[mark.ases:]
        del self._endpoints[mark.endpoints:]
        self._next_asn = mark.next_asn
        self._allocator.reset_to(mark.allocator)

    @property
    def ases(self) -> list[AutonomousSystem]:
        return list(self._ases)

    @property
    def endpoints(self) -> list[Endpoint]:
        return list(self._endpoints)

    def pick_region(self) -> Region:
        regions = list(self._weights)
        weights = [self._weights[region] for region in regions]
        return self._rng.choices(regions, weights=weights, k=1)[0]

    def create_as(self, region: Optional[Region] = None) -> AutonomousSystem:
        autonomous_system = AutonomousSystem(
            asn=self._next_asn, region=region or self.pick_region()
        )
        self._next_asn += 1
        self._ases.append(autonomous_system)
        return autonomous_system

    def create_ases(self, count: int) -> list[AutonomousSystem]:
        return [self.create_as() for _ in range(count)]

    def create_endpoint(
        self,
        autonomous_system: Optional[AutonomousSystem] = None,
        name: str = "",
    ) -> Endpoint:
        """Create an endpoint, in a fresh AS unless one is given."""
        if autonomous_system is None:
            autonomous_system = self.create_as()
        endpoint = Endpoint(
            address=self._allocator.allocate(),
            region=autonomous_system.region,
            asn=autonomous_system.asn,
            name=name,
        )
        self._endpoints.append(endpoint)
        return endpoint

    def endpoint_in_region(self, region: Region, name: str = "") -> Endpoint:
        return self.create_endpoint(self.create_as(region), name=name)
