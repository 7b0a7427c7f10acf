"""ECS cache-cardinality bench.

RFC 7871 multiplies cache cardinality: one entry per (name, type)
becomes up to one per *answer scope* per name.  This bench measures the
scoped overlay (`Cache.put_scoped`/`get_scoped`) under an identical
aggregate query stream split across 1, 64, 1024 and 4096 client /24s —
entries held, hit rate, overlay bytes, lookup throughput — and files
the curve into ``BENCH_perf.json`` as ``ecs_cardinality_s{N}``.  Entries
and bytes growing with the population is the *intended* behaviour being
measured; the lookup rate is not supposed to follow them down (one dict
probe per prefix length present, not a scan of the key's answers), so
``ecs_cardinality_s1024`` is baselined and gated by ``check_perf.py``.
Model and scenario context: ``docs/ecs.md``.
"""

from __future__ import annotations

import random
import sys
import time

from benchmarks.conftest import record_perf
from repro.dns.ecs import ClientSubnet
from repro.dns.name import Name
from repro.dns.rdtypes import A, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache

NAME = Name("www.cdn.example.")
SUBNET_COUNTS = (1, 64, 1024, 4096)
QUERIES = 6000
RATE_QPS = 2.0     # aggregate; each subnet sees RATE_QPS / N
TTL = 300


def _client_subnet(index: int) -> ClientSubnet:
    # The RFC 2544 block upward from 198.18.0.0, as the ECS worlds use.
    return ClientSubnet.from_ip(f"198.{18 + index // 256}.{index % 256}.0", 24)


def _overlay_bytes(cache: Cache) -> int:
    """Deep-ish size of what the scoped overlay holds: entries, rrsets,
    rdatas (the cache's own index structures are not counted)."""
    total = 0
    for entry in cache.scoped_entries():
        total += sys.getsizeof(entry) + sys.getsizeof(entry.rrset)
        total += sum(sys.getsizeof(rd) for rd in entry.rrset.rdatas)
    return total


def _drive(subnets: int) -> dict:
    """One fixed aggregate stream over ``subnets`` /24s; refetch on miss.

    A miss costs a ``put_scoped`` at scope /24 (the authoritative scopes
    at the source prefix, as the CDN world does), so the steady state is
    the Jung-model hit rate at per-subnet rate ``RATE_QPS / subnets``.
    The lookup loop is timed on its own, so each population size reports
    its own ``ops_per_s`` — the curve a per-key scan of the scoped
    answers used to bend.
    """
    cache = Cache()
    rng = random.Random(0x7871 ^ subnets)
    pool = [_client_subnet(index) for index in range(subnets)]
    hits = 0
    started = time.perf_counter()
    for step in range(QUERIES):
        now = step / RATE_QPS
        subnet = pool[rng.randrange(subnets)]
        if cache.get_scoped(NAME, RdataType.A, subnet, now=now) is not None:
            hits += 1
        else:
            rrset = RRset(NAME, RdataType.A, TTL, [A("203.0.113.1")])
            cache.put_scoped(rrset, subnet, 24, now=now)
    elapsed = time.perf_counter() - started
    return {
        "subnets": subnets,
        "ops_per_s": round(QUERIES / elapsed, 1),
        "hit_rate": round(hits / QUERIES, 4),
        "entries": cache.ecs_scoped_len(),
        "overlay_bytes": _overlay_bytes(cache),
    }


def _fastest_drive(subnets: int) -> dict:
    """The fastest of three identical drives: the stream is deterministic,
    so the rows differ only in ``ops_per_s``, and one ~50 ms timing is too
    exposed to the host for a gated number."""
    return max((_drive(subnets) for _ in range(3)), key=lambda row: row["ops_per_s"])


def bench_ecs_cache_cardinality(benchmark):
    results = benchmark.pedantic(
        lambda: [_fastest_drive(n) for n in SUBNET_COUNTS], rounds=1, iterations=1
    )
    by_subnets = {row["subnets"]: row for row in results}
    # The shape, not the exact values: cardinality grows with the subnet
    # population while the per-subnet arrival rate — and so the hit
    # rate — falls.
    assert by_subnets[1]["entries"] == 1
    assert by_subnets[64]["entries"] > by_subnets[1]["entries"]
    assert by_subnets[1024]["entries"] > by_subnets[64]["entries"]
    assert by_subnets[4096]["entries"] > by_subnets[1024]["entries"]
    assert (
        by_subnets[1]["hit_rate"]
        > by_subnets[64]["hit_rate"]
        > by_subnets[1024]["hit_rate"]
        > by_subnets[4096]["hit_rate"]
    )
    for row in results:
        record_perf(
            f"ecs_cardinality_s{row['subnets']}",
            ops_per_s=row["ops_per_s"],
            hit_rate=row["hit_rate"],
            entries=row["entries"],
            overlay_bytes=row["overlay_bytes"],
        )
    lines = ["ECS cache cardinality (aggregate 2 q/s, TTL 300 s, /24 scopes)"]
    lines.append("subnets | hit rate | entries | overlay bytes | lookups/s")
    for row in results:
        lines.append(
            f"{row['subnets']:7d} | {row['hit_rate']:8.1%} | "
            f"{row['entries']:7d} | {row['overlay_bytes']:13,d} | "
            f"{row['ops_per_s']:9,.0f}"
        )
    print("\n" + "\n".join(lines))
