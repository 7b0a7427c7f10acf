"""Cache hit rate as a function of TTL — the Jung et al. model.

The paper's related work (§7) builds on Jung, Berger & Balakrishnan, who
modelled TTL-based caches and showed that "TTLs shorter than 1000 s were
sufficient to reap most of the benefits" of caching, and on Moura et al.,
who measured "cache hit rates of around 70 % for TTLs ranging from
1800–86400 s" in production.  This module provides both the closed form
and a discrete simulation, so the repository can show *why* the latency
results of §5.3/§6.2 look the way they do.

For Poisson-arriving queries at rate λ against a record with TTL T, each
cache miss opens a window of length T during which every query hits.  By
renewal-reward, the expected number of queries per cycle is 1 + λT (one
miss plus the hits), so::

    hit_rate(λ, T) = λT / (1 + λT)
"""

from __future__ import annotations

import random


def analytic_hit_rate(arrival_rate: float, ttl: float) -> float:
    """Jung et al.'s closed-form hit rate for Poisson arrivals.

    ``arrival_rate`` is in queries/second, ``ttl`` in seconds.
    """
    if arrival_rate < 0 or ttl < 0:
        raise ValueError("rate and TTL must be non-negative")
    mass = arrival_rate * ttl
    return mass / (1.0 + mass)


def simulate_hit_rate(
    arrival_rate: float,
    ttl: float,
    duration: float = 864000.0,
    seed: int = 0,
) -> float:
    """Discrete simulation of the same process (validates the model)."""
    if arrival_rate <= 0:
        return 0.0
    rng = random.Random(seed ^ 0x417)
    now = 0.0
    cache_expires = -1.0
    hits = 0
    queries = 0
    while True:
        now += rng.expovariate(arrival_rate)
        if now >= duration:
            break
        queries += 1
        if now < cache_expires:
            hits += 1
        else:
            cache_expires = now + ttl
    return hits / queries if queries else 0.0


def diminishing_returns_ttl(
    arrival_rate: float, target_fraction: float = 0.9
) -> float:
    """The TTL at which caching reaches ``target_fraction`` of its maximum.

    Since hit rate → 1 as TTL → ∞, this is the T with
    λT/(1+λT) = target, i.e. T = target / (λ (1 - target)).  For typical
    per-resolver demand this lands well under an hour — Jung et al.'s
    "most of the benefits by 1000 s" observation.
    """
    if not 0 < target_fraction < 1:
        raise ValueError("target_fraction must be in (0, 1)")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    return target_fraction / (arrival_rate * (1.0 - target_fraction))


def latency_model(
    arrival_rate: float,
    ttl: float,
    hit_latency_ms: float,
    miss_latency_ms: float,
) -> float:
    """Expected per-query latency given the hit rate — ties the hit-rate
    model to the paper's latency results (§6.2)."""
    rate = analytic_hit_rate(arrival_rate, ttl)
    return rate * hit_latency_ms + (1.0 - rate) * miss_latency_ms
