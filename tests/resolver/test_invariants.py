"""Resolver-level invariants, property-tested against the mini world.

Whatever the policy and timing, certain things must always hold:

- an answered TTL never exceeds the largest TTL configured anywhere for
  that record (paper: the effective TTL is a *choice among* configured
  values, never an invention);
- repeated queries never see the remaining TTL increase without an
  intervening refetch;
- resolution always terminates with a definite rcode.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Rcode
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

from tests.conftest import MiniWorld, build_mini_world

POLICIES = [
    ResolverPolicy.child_centric(),
    ResolverPolicy.parent_centric(),
    ResolverPolicy.capping(21599),
    ResolverPolicy.sticky_resolver(),
    ResolverPolicy.unlinked(),
    ResolverPolicy.prefetching(),
]

QUERIES = [
    ("example.tld.", RdataType.NS),
    ("ns1.example.tld.", RdataType.A),
    ("www.example.tld.", RdataType.A),
    ("tld.", RdataType.NS),
]

#: Any TTL the mini world configures anywhere (conftest constants).
MAX_CONFIGURED_TTL = 518400


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    query=st.sampled_from(QUERIES),
    times=st.lists(
        st.floats(min_value=0, max_value=200000), min_size=1, max_size=6
    ),
)
def test_answered_ttl_never_invented(policy, query, times):
    world = build_mini_world()
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
        root_zone=world.root_zone,
    )
    qname, qtype = query
    for now in sorted(times):
        result = resolver.resolve(qname, qtype, now=now)
        assert result.rcode in (Rcode.NOERROR, Rcode.SERVFAIL)
        for rrset in result.answers:
            assert 0 <= rrset.ttl <= MAX_CONFIGURED_TTL
            if policy.ttl_cap is not None:
                assert rrset.ttl <= policy.ttl_cap


@settings(max_examples=30, deadline=None)
@given(
    policy=st.sampled_from(POLICIES[:5]),
    gaps=st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=6),
)
def test_cached_ttl_monotone_between_fetches(policy, gaps):
    """Between two cache hits with no refetch, remaining TTL must not grow."""
    world = build_mini_world()
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
    )
    now = 0.0
    previous_ttl = None
    resolver.resolve("www.example.tld.", RdataType.A, now=now)
    for gap in gaps:
        now += gap
        result = resolver.resolve("www.example.tld.", RdataType.A, now=now)
        if result.rcode != Rcode.NOERROR or not result.answers:
            break
        ttl = result.answers[-1].ttl
        if result.cache_hit and previous_ttl is not None:
            assert ttl <= previous_ttl
        previous_ttl = ttl if result.cache_hit else None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_resolution_terminates_under_loss(seed):
    world = build_mini_world(loss_rate=0.5)
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
    )
    result = resolver.resolve("www.example.tld.", RdataType.A, now=float(seed))
    assert result.rcode in (Rcode.NOERROR, Rcode.SERVFAIL)
    assert result.elapsed < 120.0  # bounded by retry/timeout budgets
