"""Ablation: prefetch (renewal) hides miss latency at short TTLs.

The paper's §7 discusses Pappas et al.'s renewal strategies ("renewing
(pre-fetching before expiration) NS records for popular domains").  With
Unbound-style prefetch, a steadily queried record never goes cold: clients
keep hitting the cache even with a short TTL — trading authoritative
query volume for latency.
"""

from benchmarks.conftest import SEED, write_report
from repro.analysis.cdf import ECDF
from repro.analysis.tables import Table
from repro.core.worlds import build_uy_world
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

QUERY_INTERVAL = 280.0  # just under the 300 s TTL -> every hit near expiry
ROUNDS = 40


def _run(policy: ResolverPolicy):
    uy = build_uy_world(SEED)
    resolver = RecursiveResolver(
        endpoint=uy.world.topology.endpoint_in_region(Region.EU),
        network=uy.world.network,
        root_hints=uy.world.hints,
        policy=policy,
    )
    latencies = []
    hits = 0
    for index in range(ROUNDS):
        out = resolver.resolve("uy.", RdataType.NS, now=index * QUERY_INTERVAL)
        latencies.append(out.elapsed * 1000.0)
        hits += out.cache_hit
    # A hit near expiry only *schedules* its refresh; the next resolve
    # runs it.  Nothing follows the last round, so run what it left due:
    # the refresh is part of what that hit cost the authoritative.
    resolver.pump(now=(ROUNDS - 1) * QUERY_INTERVAL)
    return ECDF(latencies), hits, resolver.queries_sent


def bench_ablation_prefetch(benchmark):
    def run():
        return {
            "plain": _run(ResolverPolicy.child_centric()),
            "prefetch": _run(ResolverPolicy.prefetching()),
        }

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        ["policy", "client cache hits", "median latency (ms)", "p95 (ms)",
         "authoritative queries"],
        title=f"Ablation: prefetch at TTL 300 s, one query per {QUERY_INTERVAL:.0f} s",
    )
    for label, (cdf, hits, sent) in outcomes.items():
        table.add_row(label, f"{hits}/{ROUNDS}", f"{cdf.median:.2f}",
                      f"{cdf.quantile(0.95):.2f}", sent)
    report = table.render()
    report += (
        "\n\nPrefetch converts repeating misses into hits: the client sees "
        "cache latency almost always, while the authoritative still gets "
        "refresh traffic — the Pappas et al. trade-off the paper cites."
    )
    write_report("ablation_prefetch", report)

    plain_cdf, plain_hits, _ = outcomes["plain"]
    prefetch_cdf, prefetch_hits, _ = outcomes["prefetch"]
    assert prefetch_hits > plain_hits
    assert prefetch_cdf.median <= plain_cdf.median
