"""Per-process world cache: zero-rebuild shard workers.

Before this module, every shard paid full world construction — zones,
delegations, servers, topology — even though consecutive shards of one
campaign differ only by seed and probe range.  Worker processes now
build each distinct world **once** and hand it to subsequent shards via
a *seeded reset*: :meth:`repro.core.worlds.World.restore_baseline`
rewinds the topology to its just-built mark, restarts every RNG stream
exactly where a fresh build under the shard seed would, and clears all
runtime residue (metrics hooks, fault injectors, server query logs,
catchment caches, the sim clock).

The equivalence that makes this safe: world *structure* is a pure
function of the builder arguments and never of the seed — all builders
place infrastructure with explicit regions, so the topology RNG is
untouched during construction.  A restored world is therefore
indistinguishable from a rebuilt one (asserted against live campaign
results by the worldcache tests, and by the serial-vs-parallel
byte-identity suite, since serial and pool paths now both lease from
this cache).

The cache is keyed by ``(builder name, canonical kwargs JSON)`` — the
seed deliberately excluded, that's what the reset is for — bounded LRU
(campaigns touch one or two worlds; crawl adds a universe), and
per-process: pool workers each warm their own via
:class:`repro.runner.executor.ShardExecutor`'s ``initializer`` hook.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.dns.name import Name

__all__ = ["cache_key", "lease", "prewarm", "clear", "stats"]

#: Distinct worlds kept per process.  A campaign uses one world; mixed
#: workloads (tests, back-to-back campaigns) stay under a handful.
MAX_WORLDS = 4

_cache: "OrderedDict[str, tuple[Any, Any]]" = OrderedDict()
_stats = {"builds": 0, "reuses": 0}


def cache_key(builder: str, kwargs: dict[str, Any]) -> str:
    """Canonical cache key for a (builder, kwargs) world identity.

    A :class:`~repro.dns.name.Name` argument keys by its presentation
    text: being a tuple, it would otherwise serialize as a label list.
    """
    kwargs = {
        key: str(value) if isinstance(value, Name) else value
        for key, value in kwargs.items()
    }
    return json.dumps(
        {"builder": builder, "kwargs": kwargs}, sort_keys=True, default=str
    )


def lease(key: str, build: Callable[[], Any], seed: int) -> Any:
    """A world for ``key``, reset to ``seed`` as if freshly built.

    On a miss, ``build()`` runs and the result's baseline is captured;
    either way the world is restored to the baseline under ``seed``
    before being returned — the fresh and reused paths are normalized
    through the exact same reset, so there is no "first shard is
    special" state to reason about.  ``build()`` may return a wrapper
    (e.g. ``UyWorld``) carrying a ``.world`` attribute; baselines live
    on the wrapped :class:`~repro.core.worlds.World`.

    The caller owns the lease until its next ``lease()`` call in the
    same process and must not mutate zones or other structure.
    """
    entry = _cache.get(key)
    if entry is None:
        built = build()
        target = getattr(built, "world", built)
        baseline = target.capture_baseline()
        _cache[key] = (built, baseline)
        while len(_cache) > MAX_WORLDS:
            _cache.popitem(last=False)
        _stats["builds"] += 1
    else:
        built, baseline = entry
        _cache.move_to_end(key)
        target = getattr(built, "world", built)
        _stats["reuses"] += 1
    target.restore_baseline(baseline, seed)
    return built


def prewarm(builder: str, world_kwargs: dict[str, Any], seed: int = 0) -> None:
    """Build (or touch) a campaign world ahead of the first shard.

    Used as the process-pool initializer so workers pay world
    construction during pool startup, off every shard's clock.  The
    seed is irrelevant — the first real lease resets it anyway.
    """
    from repro.runner.campaigns import _world_builders

    builders = _world_builders()
    if builder not in builders:
        return
    lease(
        cache_key(builder, world_kwargs),
        lambda: builders[builder](seed, **world_kwargs),
        seed=seed,
    )


def clear() -> None:
    """Drop every cached world and zero the counters (tests; long-lived
    embedding sessions)."""
    _cache.clear()
    _stats["builds"] = 0
    _stats["reuses"] = 0


def stats() -> dict[str, int]:
    """Build/reuse counters for this process (telemetry, tests)."""
    return dict(_stats)
