"""Structural guard on the miss path: record sets travel by reference.

A short-TTL campaign pushes every query through iteration to the
authoritatives (§5.3 of the paper).  On that path nothing may take an
RRset apart and put it back together: the zone answers with its own
RRsets, the message carries them, the resolver caches them.  Counting
calls under the profiler states that without depending on how many calls
this interpreter version happens to make for anything else.
"""

import cProfile

from repro.core.scenarios import scenario_uy_ns
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.dns.record import ResourceRecord, RRset, group_rrsets
from repro.dns.ttl import validate_ttl
from repro.dns.zone import Zone
from repro.metrics.registry import Histogram
from repro.net.latency import LatencyModel
from repro.net.topology import Region
from repro.net.transport import Network
from repro.resolver.cache import Cache, CacheEntry
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.recursive import RecursiveResolver, ResolutionResult
from repro.resolver.stub import StubResolver
from repro.server.authoritative import AuthoritativeServer
from tests.conftest import build_mini_world
from tests.metrics.test_count_once_structure import calls as traced_calls


def profiled_campaign(monkeypatch, child_ns_ttl: int, duration: float):
    """Run the campaign under the profiler: (run, stats by code object,
    every cache built).  By code object, not by pstats label, so the
    dataclass-generated ``__init__``s (all ``<string>:2``) stay apart."""
    caches = []
    cache_init = Cache.__init__

    def recording_init(self, *args, **kwargs):
        caches.append(self)
        cache_init(self, *args, **kwargs)

    monkeypatch.setattr(Cache, "__init__", recording_init)
    profiler = cProfile.Profile()
    profiler.enable()
    run = scenario_uy_ns(
        seed=1, probes=24, duration=duration, child_ns_ttl=child_ns_ttl,
        parallelism=1, shards=2,
    )
    profiler.disable()
    return run, {entry.code: entry for entry in profiler.getstats()}, caches


def calls(stats, function) -> int:
    entry = stats.get(function.__code__)
    return 0 if entry is None else entry.callcount


def calls_from(stats, source_suffix: str, function) -> int:
    """Calls of ``function`` made by code in files ending ``source_suffix``."""
    total = 0
    for code, entry in stats.items():
        if isinstance(code, str) or not code.co_filename.endswith(source_suffix):
            continue
        for callee in entry.calls or ():
            if callee.code is function.__code__:
                total += callee.callcount
    return total


def test_short_ttl_campaign_builds_no_records_and_regroups_nothing(monkeypatch):
    compiled = []
    respond = Zone.respond

    def recording_respond(zone, query):
        compiled.append((zone, query.question.qname, query.question.qtype))
        return respond(zone, query)

    monkeypatch.setattr(Zone, "respond", recording_respond)
    run, stats, caches = profiled_campaign(monkeypatch, child_ns_ttl=60, duration=3000.0)
    queries = run.summary["queries"]

    # The workload did reach the authoritatives and fill caches ...
    assert queries > 100
    assert calls(stats, AuthoritativeServer.handle_query) > queries
    assert calls(stats, Cache.put) > queries
    # ... and each zone built an answer's body at most once (none, if an
    # earlier run in this process warmed the world): the server answers a
    # compiled (qname, qtype) itself, so respond runs at most once per key.
    assert len(compiled) == len(set(compiled))
    # ... without a single per-record object (every ResourceRecord
    # construction runs __post_init__) or regrouping pass.
    assert calls(stats, ResourceRecord.__post_init__) == 0
    assert calls(stats, RRset.records) == 0
    assert calls(stats, group_rrsets) == 0

    # A feature nobody installed is never entered: the default resolvers'
    # plans are empty and no fault plan is attached.
    for package in ("repro/predict/", "repro/push/", "repro/dns/ecs.py", "repro/faults/"):
        entered = [
            code.co_name for code in stats
            if not isinstance(code, str) and package in code.co_filename
        ]
        assert entered == [], (package, entered)

    # Renewals rewrite the key's entry: one entry object per cached key,
    # however many times it is written.
    cached_keys = sum(len(cache) for cache in caches)
    assert 0 < calls(stats, CacheEntry.__init__) <= cached_keys
    assert calls(stats, Cache.put) > 5 * cached_keys
    # Ancestor walks iterate a lineage built once per name and read
    # without a call: the cost is set by the names in the world, not by
    # the traffic.
    built = calls(stats, Name.lineage) + calls(stats, Name.parent)
    assert built + calls(stats, Name.from_labels) < queries
    # The resolver reads through the one read frame.
    assert calls_from(stats, "resolver/recursive.py", Cache.get_entry) > queries
    assert calls_from(stats, "resolver/recursive.py", Cache.get) == 0
    # No negative answer and no refresh-ahead reader: the expiry heap
    # indexes nothing, so no write pays for upkeep.
    assert calls(stats, Cache._maintain) == calls(stats, Cache._surface_expired) == 0
    assert [len(cache._expiry_heap) for cache in caches] == [0] * len(caches)


def test_long_ttl_campaign_answers_its_hits_from_leases(monkeypatch):
    """The hit-path twin: a live entry's hits are answered by the probe
    loop from the lease on it, so what crosses into the stub, the resolver
    and the entry is the misses and each renewal's first hit — and the
    counters the leased hits owe arrive in one call per resolver."""
    run, stats, caches = profiled_campaign(monkeypatch, child_ns_ttl=86400, duration=12000.0)
    queries = run.summary["queries"]
    hits = sum(1 for row in run.results.results if row.cache_hit)
    assert hits > 0.9 * queries > 400
    for crossing in (StubResolver.query, RecursiveResolver.resolve, CacheEntry.aged_rrset):
        assert 0 < calls(stats, crossing) < 0.15 * queries, crossing
    # Every resolver (forwarders too) owns one cache.  No checkpoint and no
    # scheduled event in this campaign: the leased hits are settled once,
    # at the end of each shard's run.
    settled = calls(stats, RecursiveResolver.count_leased_hits) + calls(
        stats, ForwardingResolver.count_leased_hits
    )
    assert 0 < settled <= len(caches)
    assert sum(cache.stats.hits for cache in caches) > hits
    # What is left is zone building: a constant of the world, not of traffic.
    assert calls(stats, validate_ttl) < hits / 4
    assert calls(stats, RRset.with_ttl) < hits / 4


#: Every Python frame of one warm miss on the mini world, by code object:
#: the stub-facing probes (negative, then the answer and its alias), the
#: walk to the child's cut and its server's address, one exchange, the
#: three writes of the response and the answer read back through the
#: cache.  The fabric reads the server's site, the server hands back the
#: zone's shared response, and the resolver reads the qname's lineage and
#: server addresses, rotates, classifies the response and extracts the
#: answer in its own frames: no endpoint_for, Zone.respond, response or
#: log-entry __init__, lineage, address, server-order, referral-test or
#: per-section search frame.
WARM_MISS_FRAMES = {
    RecursiveResolver.resolve: 1,
    Cache.get_negative: 1,
    RecursiveResolver._answer_from_cache: 1,
    Cache.get_entry: 5,
    RecursiveResolver._resolve_with_cnames: 1,
    RecursiveResolver._iterate: 1,
    RecursiveResolver._best_servers: 1,
    RecursiveResolver._query_servers: 1,
    Network.exchange: 1,
    LatencyModel.rtt: 1,
    AuthoritativeServer.handle_query: 1,
    Histogram.observe: 2,
    RecursiveResolver._cache_response: 1,
    Cache.put: 3,
    Name.is_subdomain_of: 1,
    RecursiveResolver._answer_chain: 1,
    Cache.peek: 1,
    CacheEntry.aged_rrset: 1,
    ResolutionResult.__init__: 1,
}

#: The frames above plus every builtin call (dict.get, list.append, len,
#: the jitter draw's random and exp, ...).
WARM_MISS_CALLS = 46


def test_a_warm_miss_makes_a_pinned_set_of_calls():
    """The answer (60 s) has expired; the child's NS set and its server's
    child-authoritative address are live, so the miss is one exchange."""
    world = build_mini_world()
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
    )
    qname = Name("www.example.tld.")
    resolver.resolve(qname, RdataType.A, 0.0)
    sent = resolver.queries_sent
    answered = []

    def warm_miss():
        answered.append(resolver.resolve(qname, RdataType.A, 61.0))

    seen = traced_calls(warm_miss)
    del seen[warm_miss.__code__], seen["setprofile"]  # the harness's frames,
    seen["list.append"] -= 1  # and its append of the result
    (result,) = answered
    assert not result.cache_hit and result.answers[0].ttl == 60
    assert resolver.queries_sent - sent == 1
    frames = {code: count for code, count in seen.items() if not isinstance(code, str)}
    assert frames == {function.__code__: count for function, count in WARM_MISS_FRAMES.items()}
    assert sum(seen.values()) == WARM_MISS_CALLS, seen
