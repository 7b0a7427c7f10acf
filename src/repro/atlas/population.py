"""Probe population generation.

Builds a population with the structural properties the paper reports:

- probes spread across regions with the Atlas Europe skew,
- ~3 probes per AS on average, with about a third of ASes hosting
  several probes (§3.2),
- most probes using an on-network resolver a few ms away, a sizeable
  minority using shared public services (capping Google-like, or
  parent-centric OpenDNS-like), and some using both — so each probe yields
  one to three vantage points (~15k VPs from ~9k probes).

Resolvers inside one AS are shared between that AS's probes, which is what
spreads observed TTLs below the configured value (a second VP hitting a
warm cache sees the *remaining* TTL).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.dns.name import Name
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.net.topology import Region, Topology
from repro.net.transport import Network
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import StubResolver
from repro.atlas.probe import Probe, VantagePoint


@dataclass
class AtlasConfig:
    """Shape of the generated probe population."""

    probes: int = 900
    seed: int = 0
    #: First probe id (sharded campaigns offset each shard's range so
    #: probe ids stay globally unique across the merged ResultSet).
    probe_id_base: int = 0
    #: Mean probes per AS (paper: ~10k probes over 3.3k ASes).
    probes_per_as: float = 3.0
    #: Probability a probe's resolver list includes a public service /
    #: a local resolver (independent draws; at least one is forced).
    public_share: float = 0.25
    local_share: float = 0.90
    #: Probability a probe has a *second* local resolver (distinct cache).
    second_local_share: float = 0.10
    #: Probability a probe's local path goes through a caching forwarder
    #: in front of the AS resolver (§4.4's multi-layer infrastructure).
    forwarder_share: float = 0.12
    #: Behaviour mix for local (on-network) resolvers, by weight.
    local_mix: dict[str, float] = field(
        default_factory=lambda: {
            "child": 0.875,
            "parent": 0.03,
            "local-root": 0.03,
            "sticky": 0.035,
            "unlinked": 0.03,
        }
    )
    #: Public services: label -> (policy factory name, share among public
    #: picks, number of shared backends).
    public_services: dict[str, tuple[str, float, int]] = field(
        default_factory=lambda: {
            "google-like": ("capping", 0.70, 6),
            "opendns-like": ("parent", 0.30, 4),
        }
    )
    #: Arm every generated resolver's ``predict`` (refresh-ahead + RFC 8767
    #: stale-while-revalidate) on top of its centricity behaviour.
    predict: bool = False


_POLICY_FACTORIES = {
    "child": ResolverPolicy.child_centric,
    "parent": ResolverPolicy.parent_centric,
    "capping": ResolverPolicy.capping,
    "local-root": ResolverPolicy.local_root,
    "sticky": ResolverPolicy.sticky_resolver,
    "unlinked": ResolverPolicy.unlinked,
}


class AtlasPopulation:
    """The generated probes, their resolvers, and derived vantage points."""

    def __init__(
        self,
        config: AtlasConfig,
        topology: Topology,
        network: Network,
        root_hints: dict[Name, str],
        root_zone: Optional[Zone] = None,
    ) -> None:
        self.config = config
        self.topology = topology
        self.network = network
        self._root_hints = dict(root_hints)
        self._root_zone = root_zone
        self._rng = random.Random(config.seed ^ 0xA71A5)
        self._latency = network.latency

        self.probes: list[Probe] = []
        self.resolver_label: dict[str, str] = {}
        self._as_resolvers: dict[int, list[RecursiveResolver]] = {}
        self._public_backends: dict[str, list[RecursiveResolver]] = {}

        self._build()

    # -- construction -----------------------------------------------------------
    def _build(self) -> None:
        as_count = max(1, int(self.config.probes / self.config.probes_per_as))
        ases = self.topology.create_ases(as_count)
        base = self.config.probe_id_base
        for probe_id in range(base, base + self.config.probes):
            autonomous_system = self._rng.choice(ases)
            endpoint = self.topology.create_endpoint(
                autonomous_system, name=f"probe-{probe_id}"
            )
            stubs = self._stubs_for(endpoint, probe_id)
            self.probes.append(Probe(probe_id=probe_id, endpoint=endpoint, stubs=stubs))

    def _stubs_for(self, endpoint, probe_id: int) -> list[StubResolver]:
        resolvers: list[RecursiveResolver] = []
        use_local = self._rng.random() < self.config.local_share
        use_public = self._rng.random() < self.config.public_share
        if not use_local and not use_public:
            use_local = True
        if use_local:
            local = self._local_resolver(endpoint.asn)
            if self._rng.random() < self.config.forwarder_share:
                local = self._forwarder_for(endpoint.asn, local)
            resolvers.append(local)
            if self._rng.random() < self.config.second_local_share:
                resolvers.append(self._local_resolver(endpoint.asn, force_new=True))
        if use_public:
            resolvers.append(self._public_resolver())
        unique: dict[str, RecursiveResolver] = {}
        for resolver in resolvers:
            unique.setdefault(resolver.address, resolver)
        return [
            StubResolver(endpoint, resolver, self._latency, seed=probe_id * 31 + i)
            for i, resolver in enumerate(unique.values())
        ]

    def _local_resolver(self, asn: int, force_new: bool = False) -> RecursiveResolver:
        pool = self._as_resolvers.setdefault(asn, [])
        if pool and not force_new:
            return self._rng.choice(pool)
        label = self._pick_local_label()
        policy = self._maybe_predictive(_POLICY_FACTORIES[label]())
        autonomous_system = next(
            a for a in self.topology.ases if a.asn == asn
        )
        endpoint = self.topology.create_endpoint(
            autonomous_system, name=f"local-res-as{asn}-{len(pool)}"
        )
        resolver = RecursiveResolver(
            endpoint=endpoint,
            network=self.network,
            root_hints=self._root_hints,
            policy=policy,
            root_zone=self._root_zone,
        )
        self.resolver_label[resolver.address] = label
        pool.append(resolver)
        return resolver

    def _forwarder_for(self, asn: int, upstream: RecursiveResolver):
        """A CPE/enterprise forwarder in front of the AS resolver (§4.4)."""
        from repro.resolver.forwarder import ForwardingResolver

        autonomous_system = next(a for a in self.topology.ases if a.asn == asn)
        endpoint = self.topology.create_endpoint(
            autonomous_system, name=f"fwd-as{asn}-{upstream.address}"
        )
        forwarder = ForwardingResolver(
            endpoint=endpoint, upstreams=[upstream], latency=self._latency
        )
        self.resolver_label[forwarder.address] = (
            "fwd+" + self.resolver_label.get(upstream.address, "child")
        )
        return forwarder

    def _maybe_predictive(self, policy: ResolverPolicy) -> ResolverPolicy:
        return policy.with_(predict=True) if self.config.predict else policy

    def _pick_local_label(self) -> str:
        labels = list(self.config.local_mix)
        weights = [self.config.local_mix[label] for label in labels]
        return self._rng.choices(labels, weights=weights, k=1)[0]

    def _public_resolver(self) -> RecursiveResolver:
        services = list(self.config.public_services)
        weights = [self.config.public_services[s][1] for s in services]
        service = self._rng.choices(services, weights=weights, k=1)[0]
        factory_name, _, backends = self.config.public_services[service]
        pool = self._public_backends.get(service)
        if pool is None:
            pool = []
            for backend in range(backends):
                region = Region.EU if backend % 2 == 0 else Region.NA
                endpoint = self.topology.endpoint_in_region(
                    region, name=f"{service}-{backend}"
                )
                resolver = RecursiveResolver(
                    endpoint=endpoint,
                    network=self.network,
                    root_hints=self._root_hints,
                    policy=self._maybe_predictive(
                        _POLICY_FACTORIES[factory_name]()
                    ),
                    root_zone=self._root_zone,
                )
                self.resolver_label[resolver.address] = service
                pool.append(resolver)
            self._public_backends[service] = pool
        return self._rng.choice(pool)

    # -- accessors -----------------------------------------------------------
    def vantage_points(self) -> list[VantagePoint]:
        vps: list[VantagePoint] = []
        for probe in self.probes:
            vps.extend(probe.vantage_points())
        return vps

    def unique_resolvers(self) -> list[RecursiveResolver]:
        seen: dict[str, RecursiveResolver] = {}
        for probe in self.probes:
            for stub in probe.stubs:
                seen.setdefault(stub.resolver.address, stub.resolver)
        return list(seen.values())

    def reset_caches(self) -> None:
        """Cold-start every resolver (between independent experiments)."""
        for resolver in self.unique_resolvers():
            resolver.cache.clear()

    def summary(self) -> dict[str, int]:
        vps = self.vantage_points()
        return {
            "probes": len(self.probes),
            "vps": len(vps),
            "resolvers": len(self.unique_resolvers()),
            "ases": len({probe.asn for probe in self.probes}),
        }
