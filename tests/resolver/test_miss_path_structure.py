"""Structural guard on the miss path: record sets travel by reference.

A short-TTL campaign pushes every query through iteration to the
authoritatives (§5.3 of the paper).  On that path nothing may take an
RRset apart and put it back together: the zone answers with its own
RRsets, the message carries them, the resolver caches them.  Counting
calls under the profiler states that without depending on how many calls
this interpreter version happens to make for anything else.
"""

import cProfile
import pstats

from repro.core.scenarios import scenario_uy_ns
from repro.dns.record import ResourceRecord, RRset, group_rrsets
from repro.dns.zone import Zone
from repro.resolver.cache import Cache


def calls(stats, function) -> int:
    code = function.__code__
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return 0 if row is None else row[1]


def test_short_ttl_campaign_builds_no_records_and_regroups_nothing():
    profiler = cProfile.Profile()
    profiler.enable()
    run = scenario_uy_ns(
        seed=1, probes=24, duration=3000.0, child_ns_ttl=60, parallelism=1, shards=2
    )
    profiler.disable()
    stats = pstats.Stats(profiler).stats

    # The workload did reach the authoritatives and fill caches ...
    assert run.summary["queries"] > 100
    assert calls(stats, Zone.respond) > run.summary["queries"]
    assert calls(stats, Cache.put) > run.summary["queries"]
    # ... without a single per-record object (every ResourceRecord
    # construction runs __post_init__) or regrouping pass.
    assert calls(stats, ResourceRecord.__post_init__) == 0
    assert calls(stats, RRset.records) == 0
    assert calls(stats, group_rrsets) == 0
