"""Hit leases ≡ the per-query loop, under everything that can end a lease.

``Measurement.run`` answers a live cache entry's hits itself, from a
reference to the entry; ``reference_measurement.reference_run`` is the
loop it replaced, where every query walks the stub and the resolver.  Both
run here on twin mini worlds — same seed, same probes, same scheduled
mutations — and must agree on everything anyone can observe, at every
checkpoint and at the end: the result table, every resolver's
``client_queries`` and ``cache.stats``, the metrics snapshot, and the state
of every stub's RNG.

Mutations reach a run through two doors.  A :class:`ScheduledEvent` may do
anything (the kernel drops every lease when one fires).  The progress hook
runs *between* two queries with no event fired, so there only the lease's
own validity stamp — ``entry.generation`` and ``entry.expires_at`` —
stands between a changed cache and a stale answer; the operations used
there are the ones that change a cache entry, which is what a resolver
serving other clients does to a lease.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.atlas.measurement import Measurement, MeasurementSpec
from repro.atlas.population import AtlasConfig, AtlasPopulation
from repro.atlas.probe import Probe
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataClass, RdataType
from repro.dns.record import RRset
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.registry import MetricsRegistry
from repro.net.latency import LatencyModel
from repro.net.topology import Endpoint, Region
from repro.resolver.cache import Cache, CacheEntry, Credibility
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import ResolutionResult
from repro.resolver.stub import StubResolver

from tests.atlas.reference_measurement import reference_run
from tests.conftest import build_mini_world, soa_rrset

INTERVAL = 20.0
DURATION = 400.0
CHECKPOINT_EVERY = 7
NS_KEY = (Name("example.tld."), RdataType.NS, RdataClass.IN)

#: The questions a campaign may ask: a 60 s answer (renewed every third
#: round), the zone's NS set, and its in-bailiwick server address — which
#: parent-centric resolvers answer from glue *linked* to that NS set.
QUESTIONS = {
    "www-a": ("www.example.tld.", RdataType.A, A("203.0.113.99")),
    "zone-ns": ("example.tld.", RdataType.NS, NS("ns9.example.tld.")),
    "glue-a": ("ns1.example.tld.", RdataType.A, A("203.0.113.53")),
}


class Twin:
    """One mini world with its probes, metrics and the campaign's question."""

    def __init__(self, seed: int, question: str, forwarders: bool) -> None:
        self.world = build_mini_world(seed)
        self.registry = MetricsRegistry()
        self.world.network.attach_metrics(self.registry)
        self.population = AtlasPopulation(
            AtlasConfig(
                probes=8, seed=seed, forwarder_share=0.6 if forwarders else 0.0,
                local_mix={"child": 0.5, "parent": 0.2, "sticky": 0.2, "unlinked": 0.1},
            ),
            self.world.topology, self.world.network, self.world.hints,
            self.world.root_zone,
        )
        self.vps = self.population.vantage_points()
        qname, self.qtype, self.other_rdata = QUESTIONS[question]
        self.qname = Name(qname)
        self.key = (self.qname, self.qtype, RdataClass.IN)
        #: Everything with a cache: what the stubs talk to, and what a
        #: forwarder among those talks to in turn.
        self.resolvers = []
        for resolver in self.population.unique_resolvers():
            for each in (resolver, *getattr(resolver, "upstreams", ())):
                if each not in self.resolvers:
                    self.resolvers.append(each)
        #: What :func:`note_counters` events read, in firing order.
        self.noted = []
        self.stub_queries = 0
        for vp in self.vps:
            vp.stub.query = self._counted(vp.stub.query)

    def _counted(self, query):
        def counted(*args):
            self.stub_queries += 1
            return query(*args)

        return counted

    def measurement(self, **kwargs) -> Measurement:
        spec = MeasurementSpec(
            str(self.qname), self.qtype, interval=INTERVAL, duration=DURATION
        )
        return Measurement(spec=spec, vantage_points=self.vps, seed=11, **kwargs)

    def observe(self, results, position: int):
        """Everything that must match once ``position`` queries are done."""
        columns = results.columns
        return (
            position,
            [list(column[:position]) for column in columns],
            [results.answer_tuples[index] for index in columns.answer[:position]],
            [
                (resolver.client_queries, dataclasses.astuple(resolver.cache.stats))
                for resolver in self.resolvers
            ],
            self.registry.snapshot().to_json(),
            [vp.stub._rng.getstate() for vp in self.vps],
        )


# ---------------------------------------------------------------- operations
# Each takes (twin, the resolver picked, virtual time).


def put_auth(twin, resolver, now):
    """A renewal at the top rank, with other data: an in-place rewrite."""
    rrset = RRset(twin.qname, twin.qtype, 45, (twin.other_rdata,))
    resolver.cache.put(rrset, Credibility.AUTH_ANSWER, now)


def put_same(twin, resolver, now):
    """The cached set again at the rank it holds (refused below the top)."""
    entry = resolver.cache.peek(twin.qname, twin.qtype)
    if entry is not None:
        resolver.cache.put(entry.rrset.with_ttl(50), entry.credibility, now)


def expire_now(twin, resolver, now):
    resolver.cache.expire_now(twin.key, now)


def refresh_expiry(twin, resolver, now):
    """What a sticky resolver does to an infrastructure record."""
    resolver.cache.refresh_expiry(twin.key, now)


def clear(twin, resolver, now):
    resolver.cache.clear()


def restart(twin, resolver, now):
    getattr(resolver, "restart", resolver.cache.clear)()  # forwarders only flush


def reset_caches(twin, resolver, now):
    twin.population.reset_caches()


def put_negative(twin, resolver, now):
    resolver.cache.put_negative(twin.qname, twin.qtype, False, now, soa_rrset())


def put_negative_elsewhere(twin, resolver, now):
    resolver.cache.put_negative(Name("nope.example.tld."), twin.qtype, True, now, soa_rrset())


def kill_link_target(twin, resolver, now):
    resolver.cache.expire_now(NS_KEY, now)


def bound_cache(twin, resolver, now):
    """From here on every write evicts down to two entries: an evicted
    entry is retired, so its lease ends; a hit still only reads."""
    resolver.cache.max_entries = 2


def attach_faults(twin, resolver, now):
    """A plan attached mid-run: every resolver owes a restart a little later."""
    plan = FaultPlan(faults=(FaultSpec(kind="resolver_restart", start=now + 45.0, duration=0.0),))
    twin.world.network.attach_faults(FaultInjector(plan, seed=3))


def note_counters(twin, resolver, now):
    """Changes nothing, but reads the books: what leased hits owe must
    have been settled before an event fires."""
    twin.noted.append(
        (
            resolver.client_queries,
            dataclasses.astuple(resolver.cache.stats),
            twin.registry.snapshot().to_json(),
        )
    )


#: Operations that change cache entries and nothing else: safe between two
#: queries, where nothing tells the kernel.  A bound changes what a write
#: does, never what a hit does, so it is one of them.
ENTRY_OPS = {
    op.__name__: op
    for op in (
        put_auth, put_same, expire_now, refresh_expiry, clear, restart, reset_caches,
        put_negative, put_negative_elsewhere, kill_link_target, bound_cache,
    )
}
#: Operations that change what a *hit* does (the resolver stops granting
#: leases, but an entry cannot show it), or read the books: a scheduled
#: event's business.
EVENT_OPS = {
    **ENTRY_OPS,
    **{op.__name__: op for op in (attach_faults, note_counters)},
}


def run_twin(run, seed, question, forwarders, mutations):
    """One side of the comparison: ``run`` is the kernel under test.

    ``mutations`` is a list of ``(door, when, pick, op name)`` with ``when``
    a fraction of the campaign and ``pick`` choosing the resolver.
    """
    twin = Twin(seed, question, forwarders)
    between = {}

    def hook(done, total):
        for op, resolver in between.get(done, ()):
            op(twin, resolver, DURATION * done / total)

    measurement = twin.measurement(progress=hook, progress_every=1)
    total = measurement.spec.rounds() * len(twin.vps)
    for door, when, pick, name in mutations:
        resolver = twin.resolvers[pick % len(twin.resolvers)]
        if door == "event":
            at = DURATION * when
            measurement.schedule(
                at, lambda op=EVENT_OPS[name], resolver=resolver, at=at: op(twin, resolver, at)
            )
        else:
            between.setdefault(1 + int(when * (total - 1)), []).append(
                (ENTRY_OPS[name], resolver)
            )
    seen = []
    results = run(
        measurement,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint=lambda state: seen.append(twin.observe(state.results, state.position)),
    )
    seen.append(twin.observe(results, len(results)))
    return twin, results, seen


def assert_kernels_agree(seed, question, forwarders, mutations):
    fast, fast_results, fast_seen = run_twin(
        Measurement.run, seed, question, forwarders, mutations
    )
    slow, slow_results, slow_seen = run_twin(
        reference_run, seed, question, forwarders, mutations
    )
    assert len(fast_seen) == len(slow_seen) == -(-len(slow_results) // CHECKPOINT_EVERY)
    for ours, theirs in zip(fast_seen, slow_seen):
        assert ours == theirs, f"kernels part ways by query {ours[0]}"
    assert fast_results == slow_results
    assert fast_results.answer_tuples == slow_results.answer_tuples
    assert fast.noted == slow.noted
    assert slow.stub_queries == len(slow_results)
    return fast, fast_results


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("forwarders", [False, True], ids=["direct", "forwarders"])
@pytest.mark.parametrize("question", sorted(QUESTIONS))
def test_undisturbed_campaign_is_mostly_leased(question, forwarders):
    fast, results = assert_kernels_agree(5, question, forwarders, [])
    hits = sum(results.columns.flags)
    assert hits > 0.5 * len(results)
    # The stub saw the misses and each lease's first hit, not the rest.
    assert fast.stub_queries < len(results) - 0.5 * hits


@pytest.mark.parametrize("door", ["event", "between"])
@pytest.mark.parametrize("name", sorted(EVENT_OPS))
@pytest.mark.parametrize("question", sorted(QUESTIONS))
def test_each_lease_ending_operation(question, name, door):
    if door == "between" and name not in ENTRY_OPS:
        pytest.skip("changes what a hit does, not an entry: needs an event")
    # On every resolver, a third of the way in (leases are live by then),
    # and once more on one of them later.
    mutations = [(door, 0.33, pick, name) for pick in range(12)] + [(door, 0.7, 1, name)]
    fast, results = assert_kernels_agree(9, question, True, mutations)
    assert fast.stub_queries < len(results)


MUTATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("event"), st.floats(0.0, 1.0), st.integers(0, 11),
            st.sampled_from(sorted(EVENT_OPS)),
        ),
        st.tuples(
            st.just("between"), st.floats(0.0, 1.0), st.integers(0, 11),
            st.sampled_from(sorted(ENTRY_OPS)),
        ),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    question=st.sampled_from(sorted(QUESTIONS)),
    forwarders=st.booleans(),
    mutations=MUTATIONS,
)
def test_interleaved_mutations(seed, question, forwarders, mutations):
    assert_kernels_agree(seed, question, forwarders, mutations)


def test_resume_takes_leases_out_again():
    """A checkpoint holds no lease: the resumed run re-leases and lands on
    the uninterrupted run's results, counters and RNG state."""
    plain, plain_results, plain_seen = run_twin(Measurement.run, 4, "www-a", True, [])
    twin = Twin(4, "www-a", True)
    for vp in twin.vps:
        del vp.stub.query  # the counting wrapper is a closure: not picklable
    measurement = twin.measurement()
    frozen = []

    def crash(state):
        if state.position >= 40:
            frozen.append(pickle.dumps((measurement, state, twin.registry)))
            raise RuntimeError("stop here")

    with pytest.raises(RuntimeError, match="stop here"):
        measurement.run(checkpoint_every=CHECKPOINT_EVERY, checkpoint=crash)
    measurement, state, twin.registry = pickle.loads(frozen[0])
    twin.vps = measurement.vantage_points
    revived = []
    for vp in twin.vps:
        resolver = vp.stub.resolver
        for each in (resolver, *getattr(resolver, "upstreams", ())):
            if each not in revived:
                revived.append(each)
    twin.resolvers = revived
    results = measurement.run(resume=state)
    assert twin.observe(results, len(results))[1:] == plain_seen[-1][1:]


def test_only_the_entry_holding_the_answered_rdatas_is_leased():
    """The kernel records the answer it was given and leases the entry it
    is offered: when the two hold different data (a refused write leaves
    the cache with something else than the client just saw), the answer
    index it knows is not the entry's, and it takes no lease."""
    qname = Name("www.example.tld.")
    answered = RRset(qname, RdataType.A, 60, (A("192.0.2.1"),))
    cached = CacheEntry(
        RRset(qname, RdataType.A, 3600, (A("192.0.2.2"),)),
        Credibility.AUTH_ANSWER, inserted_at=0.0, expires_at=3600.0, generation=1,
    )

    class Resolver:
        endpoint = Endpoint("10.9.9.9", Region.EU, asn=64500)
        address = endpoint.address
        resolved = leases_asked = 0

        def resolve(self, qname, qtype, now):
            self.resolved += 1
            return ResolutionResult(rcode=Rcode.NOERROR, answers=[answered])

        def hit_lease(self, qname, qtype):
            self.leases_asked += 1
            return cached

    resolver = Resolver()
    stub = StubResolver(
        Endpoint("10.1.1.1", Region.EU, asn=64500), resolver, LatencyModel(seed=0)
    )
    spec = MeasurementSpec(str(qname), RdataType.A, interval=INTERVAL, duration=DURATION)
    results = Measurement(spec=spec, vantage_points=Probe(1, stub.endpoint, [stub]).vantage_points()).run()
    assert resolver.resolved == resolver.leases_asked == len(results) == 20
    assert set(results.columns.ttl) == {60}


# ------------------------------------------------- the stamp, at the cache


def _cached(cache: Cache, name: str, now: float = 0.0):
    cache.put(RRset(Name(name), RdataType.A, 60, (A("192.0.2.1"),)), Credibility.AUTH_ANSWER, now)
    return cache.peek(Name(name), RdataType.A)


def test_a_lease_is_the_entry_and_a_rewrite_moves_its_stamp():
    cache = Cache()
    entry = _cached(cache, "a.example.")
    key = entry.key()
    assert cache.lease(key) is entry
    generation = entry.generation
    _cached(cache, "a.example.", now=10.0)
    assert cache.lease(key) is entry and entry.generation > generation


def test_entries_the_cache_lets_go_of_are_retired():
    flushed = Cache()
    entry = _cached(flushed, "a.example.")
    generation = entry.generation
    flushed.clear()
    assert entry.generation != generation
    assert _cached(flushed, "a.example.") is not entry

    bounded = Cache(max_entries=1)
    first = _cached(bounded, "a.example.")
    generation = first.generation
    _cached(bounded, "b.example.")
    assert bounded.peek(Name("a.example."), RdataType.A) is None
    assert first.generation != generation

    replaced = Cache()
    entry = _cached(replaced, "a.example.")
    generation = entry.generation
    replaced.put_negative(Name("a.example."), RdataType.A, True, 70.0, soa_rrset())
    negative = replaced.peek(Name("a.example."), RdataType.A)
    assert negative is not entry and negative.credibility is Credibility.NXDOMAIN
    assert entry.generation != generation


def test_a_cache_declines_what_an_entry_cannot_vouch_for():
    cache = Cache()
    entry = _cached(cache, "a.example.")
    key = entry.key()
    assert cache.lease(key, Credibility.AUTH_ANSWER) is entry
    assert cache.lease((Name("b.example."), RdataType.A, RdataClass.IN)) is None

    glue = RRset(Name("ns.a.example."), RdataType.A, 60, (A("192.0.2.2"),))
    cache.put(glue, Credibility.ADDITIONAL, 0.0, linked_to=key)
    assert cache.lease((glue.name, RdataType.A, RdataClass.IN)) is None  # linked
    low = RRset(Name("c.example."), RdataType.A, 60, (A("192.0.2.3"),))
    cache.put(low, Credibility.ADDITIONAL, 0.0)
    assert cache.lease((low.name, RdataType.A, RdataClass.IN), Credibility.NONAUTH_ANSWER) is None

    cache.put_negative(Name("nope.example."), RdataType.A, True, 0.0, soa_rrset())
    assert cache.lease(key) is entry  # a negative elsewhere cannot go first
    assert cache.lease((Name("nope.example."), RdataType.A, RdataClass.IN)) is None
    bounded = Cache(max_entries=8)
    entry = _cached(bounded, "a.example.")
    assert bounded.lease(entry.key()) is entry  # a hit reorders nothing


def test_a_resolver_declines_when_a_hit_does_more_than_read(mini_world):
    qname = Name("www.example.tld.")
    plain = mini_world.make_resolver()
    plain.resolve(qname, RdataType.A, 0.0)
    assert plain.hit_lease(qname, RdataType.A) is plain.cache.peek(qname, RdataType.A)
    assert plain.hit_lease(Name("nope.example.tld."), RdataType.A) is None

    prefetching = mini_world.make_resolver(ResolverPolicy.child_centric().with_(prefetch=True))
    prefetching.resolve(qname, RdataType.A, 0.0)
    assert prefetching.hit_lease(qname, RdataType.A) is None

    mini_world.network.attach_faults(FaultInjector(FaultPlan(), seed=0))
    assert plain.hit_lease(qname, RdataType.A) is None


def test_a_negative_answer_elsewhere_leaves_a_lease_granted(mini_world):
    """A cached NXDOMAIN is its own key's entry: it cannot go first for
    any other key, so the live positive entry is still leased."""
    qname = Name("www.example.tld.")
    resolver = mini_world.make_resolver()
    resolver.resolve(qname, RdataType.A, 0.0)
    nope = Name("nope.example.tld.")
    assert resolver.resolve(nope, RdataType.A, 1.0).rcode is Rcode.NXDOMAIN
    assert resolver.cache.get_negative(nope, RdataType.A, 2.0) is not None
    assert resolver.hit_lease(qname, RdataType.A) is resolver.cache.peek(qname, RdataType.A)
    assert resolver.hit_lease(nope, RdataType.A) is None


def test_leased_hits_count_what_walked_hits_count(mini_world):
    qname = Name("www.example.tld.")
    leased, walked = mini_world.make_resolver(), mini_world.make_resolver()
    for resolver in (leased, walked):
        resolver.resolve(qname, RdataType.A, 0.0)
    leased.count_leased_hits(3)
    for second in (1.0, 2.0, 3.0):
        assert walked.resolve(qname, RdataType.A, second).cache_hit
    assert leased.client_queries == walked.client_queries == 4
    assert leased.cache.stats == walked.cache.stats
