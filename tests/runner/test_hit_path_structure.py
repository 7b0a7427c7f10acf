"""Structural guard on the hit path: results are a table, not rows.

A long-TTL campaign answers nearly every query from the resolver cache
(§5.3 of the paper), so what is left to pay per query is what happens
*after* the answer: recording it, shipping the shard, merging, filtering,
summarising.  None of that may touch a query one at a time — no row
object is built and no function under ``repro/runner``, ``repro/core`` or
``repro/atlas/results.py`` is called per query.

Calls are counted by code object from ``Profile.getstats()``.  ``pstats``
keys by (file, line, name), and every dataclass-generated ``__init__``
is ``('<string>', 2, '__init__')``: it would keep one of them.
"""

import cProfile
import os

from repro.atlas.results import MeasurementResult
from repro.core.scenarios import scenario_uy_ns

_LAYERS = tuple(
    os.path.join("repro", *parts)
    for parts in (("runner", ""), ("core", ""), ("atlas", "results.py"))
)


def _profiled(function):
    profiler = cProfile.Profile()
    profiler.enable()
    value = function()
    profiler.disable()
    counts = {
        entry.code: entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)  # builtins are named, not code objects
    }
    return value, counts


def _campaign(duration):
    run, counts = _profiled(
        lambda: scenario_uy_ns(
            seed=1, probes=24, duration=duration, child_ns_ttl=86400,
            parallelism=1, shards=2,
        )
    )
    queries = run.summary["queries"]
    assert run.summary["responses_valid"] == queries
    layer_calls = sum(
        count for code, count in counts.items()
        if any(layer in code.co_filename for layer in _LAYERS)
    )
    return run, queries, layer_calls, counts.get(MeasurementResult.__init__.__code__, 0)


def test_long_ttl_campaign_builds_no_rows_and_does_nothing_per_query():
    _, queries, layer_calls, rows_built = _campaign(6000.0)
    run, twice_queries, twice_layer_calls, twice_rows_built = _campaign(12000.0)
    assert twice_queries == 2 * queries > 600
    assert rows_built == twice_rows_built == 0
    # Campaign set-up, two shards and one merge are some 150 calls whatever
    # the size (imports and the world build came before, in the first run):
    # what is held to half a call per query is what the queries add.
    assert 0 < layer_calls
    assert twice_layer_calls - layer_calls <= 0.5 * queries
    assert twice_layer_calls <= 0.5 * twice_queries

    # The row view is built when asked for, once.
    rows, counts = _profiled(lambda: run.results.results)
    assert counts.get(MeasurementResult.__init__.__code__, 0) == len(rows) == twice_queries
    assert run.results.results is rows
