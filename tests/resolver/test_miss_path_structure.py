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
from repro.dns.record import ResourceRecord, RRset, group_rrsets
from repro.dns.ttl import validate_ttl
from repro.dns.zone import Zone
from repro.resolver.cache import Cache, CacheEntry
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import StubResolver


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
    run, stats, caches = profiled_campaign(monkeypatch, child_ns_ttl=60, duration=3000.0)
    queries = run.summary["queries"]

    # The workload did reach the authoritatives and fill caches ...
    assert queries > 100
    assert calls(stats, Zone.respond) > queries
    assert calls(stats, Cache.put) > queries
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
    # Ancestor walks iterate a lineage built once per name: the cost is
    # set by the names in the world, not by the traffic.
    assert calls(stats, Name.lineage) > queries
    assert calls(stats, Name.parent) + calls(stats, Name.from_labels) < queries
    # The resolver reads through the one read frame.
    assert calls_from(stats, "resolver/recursive.py", Cache.get_entry) > queries
    assert calls_from(stats, "resolver/recursive.py", Cache.get) == 0
    assert calls_from(stats, "resolver/recursive.py", Cache._is_dead) == 0
    assert calls_from(stats, "resolver/cache.py", Cache._is_dead) < calls(stats, Cache.put)
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
