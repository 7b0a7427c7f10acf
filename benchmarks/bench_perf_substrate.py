"""Performance microbenchmarks for the substrate itself.

Not a paper artifact: these keep the simulator fast enough that the
paper-scale experiments stay cheap.  pytest-benchmark's statistics make
regressions visible (each op should stay comfortably in the µs range).
"""

import random

from benchmarks.perf_records import record_perf
from repro.dns.message import Message, Section
from repro.dns.name import Name
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.record import RRset
from repro.dns.zone import Zone
from repro.resolver.cache import Cache, Credibility


def _record(benchmark, name: str, **extra) -> None:
    """File this bench's stats into ``output/BENCH_perf.json``.

    ``extra`` wins on key collisions, so benches whose meaningful rate is
    not ``1 / mean`` (e.g. campaign q/s) can override ``ops_per_s``.
    """
    stats = benchmark.stats.stats
    fields = {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "ops_per_s": round(1.0 / stats.mean, 1) if stats.mean else None,
    }
    fields.update(extra)
    record_perf(name, **fields)


def _sample_response() -> Message:
    query = Message.make_query("www.example.com", RdataType.A, id=0x1234)
    response = query.make_response(authoritative=True)
    response.add(
        Section.ANSWER,
        RRset(Name("www.example.com"), RdataType.A, 300, [A("192.0.2.1")]),
    )
    response.add(
        Section.AUTHORITY,
        RRset(Name("example.com"), RdataType.NS, 3600, [NS(Name("ns1.example.com"))]),
    )
    response.add(
        Section.ADDITIONAL,
        RRset(Name("ns1.example.com"), RdataType.A, 7200, [A("192.0.2.53")]),
    )
    return response


def bench_perf_message_encode(benchmark):
    response = _sample_response()
    blob = benchmark(response.to_wire)
    assert len(blob) > 12
    _record(benchmark, "message_encode")


def bench_perf_message_decode(benchmark):
    blob = _sample_response().to_wire()
    decoded = benchmark(Message.from_wire, blob)
    assert decoded.answer
    _record(benchmark, "message_decode")


def bench_perf_name_parse(benchmark):
    name = benchmark(Name, "some.fairly.deep.name.example.com")
    assert len(name) == 6
    _record(benchmark, "name_parse")


def bench_perf_cache_put_get(benchmark):
    cache = Cache()
    rrset = RRset(Name("srv.example.com"), RdataType.A, 300, [A("192.0.2.1")])

    def put_get():
        cache.put(rrset, Credibility.AUTH_ANSWER, now=0.0)
        return cache.get(Name("srv.example.com"), RdataType.A, now=1.0)

    entry = benchmark(put_get)
    assert entry is not None
    _record(benchmark, "cache_put_get")


def bench_perf_big_zone_lookup(benchmark):
    """Lookup cost in a TLD-sized zone (50k delegations)."""
    zone = Zone("big.", default_ttl=3600)
    zone.add_soa("ns.big.")
    for index in range(50_000):
        zone.add(f"d{index}.big.", RdataType.NS, NS("ns.hosting.example."), ttl=3600)
    rng = random.Random(1)

    def lookup():
        index = rng.randrange(50_000)
        return zone.lookup(f"www.d{index}.big.", RdataType.A)

    result = benchmark(lookup)
    assert result.status.name == "DELEGATION"
    _record(benchmark, "big_zone_lookup")


def bench_perf_full_resolution(benchmark):
    """A complete cold-cache root→TLD→child resolution."""
    from tests.conftest import build_mini_world
    from repro.net.topology import Region
    from repro.resolver.recursive import RecursiveResolver

    world = build_mini_world()

    def resolve_cold():
        resolver = RecursiveResolver(
            endpoint=world.topology.endpoint_in_region(Region.EU),
            network=world.network,
            root_hints=world.hints,
        )
        return resolver.resolve("www.example.tld.", RdataType.A, now=0.0)

    out = benchmark(resolve_cold)
    assert out.rcode.name == "NOERROR"
    _record(benchmark, "full_resolution")


def bench_perf_warm_resolution(benchmark):
    """Cache-hit path: what the §6.2 latency numbers are made of."""
    from tests.conftest import build_mini_world
    from repro.net.topology import Region
    from repro.resolver.recursive import RecursiveResolver

    world = build_mini_world()
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
    )
    resolver.resolve("www.example.tld.", RdataType.A, now=0.0)

    out = benchmark(resolver.resolve, "www.example.tld.", RdataType.A, 1.0)
    assert out.cache_hit
    _record(benchmark, "warm_resolution")


def bench_perf_campaign_large(benchmark):
    """Serial vs 4-worker wall time for a paper-scale T2 campaign.

    The predecessor bench ran 86 queries — at that size the wall clock
    measures process-pool startup, not the campaign kernel, and its
    "speedup" numbers were noise.  This one runs >=100k queries at the
    defaults (2000 probes x 10h, 8 shards; override with
    ``REPRO_BENCH_CAMPAIGN_PROBES`` / ``REPRO_BENCH_CAMPAIGN_DURATION``
    for CI-sized smoke runs), so per-shard compute dominates and both
    the flattened probe loop and the zero-rebuild workers show up.

    Records ``campaign_large`` (single-worker q/s, gated at >= 1.3x the
    ``campaign_throughput`` baseline) and rebases
    ``sharded_campaign_speedup`` on the same run; ``check_perf.py``
    judges the speedup by the recorded ``cpus`` (strict 3x on >=4-core
    hosts, overhead-bound on 1-core CI boxes).
    """
    import os
    import time

    from repro.core.scenarios import scenario_uy_ns

    probes = int(os.environ.get("REPRO_BENCH_CAMPAIGN_PROBES", "2000"))
    duration = float(os.environ.get("REPRO_BENCH_CAMPAIGN_DURATION", "36000"))
    kwargs = dict(seed=11, probes=probes, duration=duration, shards=8)
    scenario_uy_ns(seed=11, probes=8, duration=600.0, shards=1, parallelism=1)  # warm imports

    start = time.perf_counter()
    serial = scenario_uy_ns(parallelism=1, **kwargs)
    serial_wall = time.perf_counter() - start
    queries = len(serial.results)

    # Two rounds, best-of: single-round pool timings are noisy on shared
    # boxes and the gate compares this number against a hard cap.
    parallel = benchmark.pedantic(
        scenario_uy_ns, kwargs={"parallelism": 4, **kwargs}, rounds=2, iterations=1
    )
    parallel_wall = benchmark.stats.stats.min
    assert parallel.results == serial.results

    serial_qps = queries / serial_wall
    speedup = serial_wall / parallel_wall
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["serial_wall_s"] = round(serial_wall, 3)
    benchmark.extra_info["serial_qps"] = round(serial_qps, 1)
    benchmark.extra_info["parallel4_wall_s"] = round(parallel_wall, 3)
    benchmark.extra_info["parallel4_qps"] = round(queries / parallel_wall, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\n[campaign-large] T2 uy-NS, {queries} queries over 8 shards: "
        f"serial {serial_wall:.2f}s ({serial_qps:,.0f} q/s) vs "
        f"4 workers {parallel_wall:.2f}s ({queries / parallel_wall:,.0f} q/s) "
        f"-> speedup {speedup:.2f}x"
    )
    shared = dict(
        queries=queries,
        serial_wall_s=round(serial_wall, 3),
        parallel4_wall_s=round(parallel_wall, 3),
        speedup=round(speedup, 2),
    )
    _record(
        benchmark, "campaign_large",
        qps=round(serial_qps, 1),
        ops_per_s=round(serial_qps, 1),  # gated as q/s, not 1/mean
        **shared,
    )
    record_perf(
        "sharded_campaign_speedup",
        ops_per_s=round(queries / parallel_wall, 1),
        **shared,
    )


def bench_perf_campaign_throughput(benchmark):
    """Merged q/s for a single-shard T2 centricity campaign.

    The end-to-end number users feel: every layer of the substrate
    (names, cache, messages, zones, transport, runner plumbing) on one
    query path, measured as campaign queries per wall-clock second.
    """
    from repro.core.scenarios import scenario_uy_ns

    kwargs = dict(seed=11, probes=200, duration=7200.0, shards=1, parallelism=1)
    scenario_uy_ns(seed=11, probes=8, duration=600.0, shards=1, parallelism=1)  # warm imports

    run = benchmark.pedantic(scenario_uy_ns, kwargs=kwargs, rounds=3, iterations=1)
    queries = len(run.results)
    wall = benchmark.stats.stats.min
    qps = queries / wall
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["qps"] = round(qps, 1)
    print(f"\n[campaign] T2 uy-NS single shard: {queries} queries -> {qps:,.0f} q/s")
    _record(
        benchmark, "campaign_throughput",
        queries=queries,
        qps=round(qps, 1),
        ops_per_s=round(qps, 1),  # the gate compares q/s, not 1/mean
    )
