"""The resolve plan decides what the per-query feature branches decided.

``RecursiveResolver.__init__`` compiles the policy and the features it
installs into hook tuples; :class:`BranchingResolver`
(``tests/resolver/reference_resolver.py``) asks per query, feature by
feature, the way ``resolve()`` used to.  Two identical worlds, one
resolver of each kind, the same seeded query stream (answers, CNAME
chains, NXDOMAIN, NODATA, NS-of-a-cut) under the same fault plan: every
:class:`ResolutionResult`, the cache statistics and the whole metrics
snapshot must be equal — for every policy archetype, because each one
installs a different plan.
"""

import random

import pytest

from repro.dns.ecs import ClientSubnet
from repro.dns.name import Name
from repro.dns.rdtypes import CNAME, RdataType
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics import MetricsRegistry
from repro.net.topology import Region
from repro.push.publisher import attach_publisher
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

from tests.conftest import build_mini_world
from tests.resolver.reference_resolver import BranchingResolver

POLICIES = {
    "child-centric": ResolverPolicy.child_centric(),
    "parent-centric": ResolverPolicy.parent_centric(),
    "sticky": ResolverPolicy.sticky_resolver(),
    "capped": ResolverPolicy.capping(90),
    "floored": ResolverPolicy(ttl_floor=90),
    "serve-stale": ResolverPolicy(serve_stale=True),
    "local-root": ResolverPolicy.local_root(),
    "unlinked": ResolverPolicy.unlinked(),
    "prefetch": ResolverPolicy.prefetching(),
    "prefetch+predict": ResolverPolicy(prefetch=True, predict=True),
    "predict": ResolverPolicy.predictive(),
    "ecs": ResolverPolicy(ecs=True),
    "push": ResolverPolicy.pushing(),
}


def fault_plans(world, resolver_address: str) -> dict[str, FaultPlan]:
    """No plan, the two convenience builders' shapes, and one of each kind
    a resolver reacts to (restart, storm, lossy and failing servers)."""
    child = world.child_server.endpoint.address
    return {
        "ddos": FaultPlan.ddos(child, start=400.0, duration=900.0),
        "mixed": FaultPlan(
            faults=(
                FaultSpec(kind="loss", start=0.0, duration=4000.0, rate=0.3),
                FaultSpec(kind="servfail", start=700.0, duration=300.0, target=child),
                FaultSpec(kind="resolver_restart", start=1500.0, duration=0.0,
                          target=resolver_address),
                FaultSpec(kind="upstream_storm", start=2200.0, duration=200.0,
                          target=resolver_address),
            ),
            name="mixed",
            seed=5,
        ),
    }


def query_stream(seed: int, count: int = 140):
    """(qname, qtype, now, client subnet) with repeats inside and across
    every TTL in the mini world, misses of each negative kind included."""
    rng = random.Random(seed)
    names = [
        ("www.example.tld.", RdataType.A),
        ("www.example.tld.", RdataType.A),
        ("www.example.tld.", RdataType.AAAA),
        ("alias.example.tld.", RdataType.A),  # CNAME -> www
        ("www.example.tld.", RdataType.TXT),  # NODATA
        ("nx.example.tld.", RdataType.A),  # NXDOMAIN
        ("example.tld.", RdataType.NS),  # a cut: parent- vs child-centric
        ("tld.", RdataType.NS),
        ("ns1.example.tld.", RdataType.A),
    ]
    subnets = [None, ClientSubnet.from_ip("198.51.100.0", 24),
               ClientSubnet.from_ip("203.0.113.0", 24)]
    now = 0.0
    for _ in range(count):
        now += rng.choice((0.5, 7.0, 31.0, 64.0, 130.0))
        qname, qtype = rng.choice(names)
        yield qname, qtype, now, rng.choice(subnets)


def run(resolver_class, policy: ResolverPolicy, plan_name: str, seed: int):
    world = build_mini_world(seed=seed)
    world.child_zone.add(
        "alias.example.tld.", RdataType.CNAME, CNAME(Name("www.example.tld.")), ttl=45
    )
    registry = MetricsRegistry()
    world.network.attach_metrics(registry)
    attach_publisher(world.child_server, world.network)
    resolver = resolver_class(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
        root_zone=world.root_zone,
    )
    if plan_name != "none":
        # After construction, like Network.attach_faults in a campaign
        # whose world was leased before its plan was known.
        plan = fault_plans(world, resolver.address)[plan_name]
        world.network.attach_faults(FaultInjector(plan, seed=seed))
    results = [
        resolver.resolve(qname, qtype, now, client_subnet=subnet)
        for qname, qtype, now, subnet in query_stream(seed)
    ]
    resolver.pump(10_000.0)
    return results, resolver.cache.stats, registry.snapshot().without_host().to_json()


@pytest.mark.parametrize("plan_name", ["none", "ddos", "mixed"])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_plan_matches_branch_per_feature_resolver(policy_name, plan_name):
    policy = POLICIES[policy_name]
    for seed in (1, 2):
        planned = run(RecursiveResolver, policy, plan_name, seed)
        branching = run(BranchingResolver, policy, plan_name, seed)
        assert planned[0] == branching[0]
        assert planned[1] == branching[1]
        assert planned[2] == branching[2]
        rcodes = {result.rcode.name for result in planned[0]}
        assert {"NOERROR", "NXDOMAIN"} <= rcodes


def test_default_resolver_installs_nothing(mini_world):
    """The default child-centric plan is empty: no hook, plain cache read."""
    resolver = mini_world.make_resolver(ResolverPolicy.child_centric())
    assert (
        resolver._before, resolver._on_hit, resolver._on_miss,
        resolver._on_answer, resolver._on_failure,
    ) == ((), (), (), (), ())
    assert resolver._infrastructure == resolver.cache.get_entry


def test_fault_plan_attached_after_construction_restarts_the_resolver(mini_world):
    resolver = mini_world.make_resolver()
    resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
    assert len(resolver.cache) > 0
    plan = FaultPlan(
        faults=(FaultSpec(kind="resolver_restart", start=5.0, duration=0.0,
                          target=resolver.address),),
        name="late", seed=0,
    )
    mini_world.network.attach_faults(FaultInjector(plan, seed=0))
    out = resolver.resolve("www.example.tld.", RdataType.A, now=10.0)
    assert not out.cache_hit  # the cache was lost at t=5
