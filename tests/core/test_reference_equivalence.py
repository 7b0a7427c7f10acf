"""Fast ≡ slow over the campaign registry — the trust harness, leg (a).

Every accelerated path in ``src/`` has (or will have) a slow reference
that lives under ``tests/``.  This module is the one place they are
swapped in: each entry of :data:`REFERENCES` replaces one production
attribute with its reference, and every registered campaign, run at the
smoke size ``test_campaign_registry.py`` pins, must then produce the very
bytes recorded there — stdout table, ``--metrics`` JSON and manifest.

The branch-per-feature ``resolve()`` in place of the construction-time
resolve plan, the per-query probe loop in place of the one that answers a
live entry's hits from a lease, the stdlib's ``lognormvariate`` in place of
the jitter draw the latency model runs inline, a zone that compiles
every response afresh in place of its compiled-answer memo, a
resolver cache with no expiry heap (every scan spelled out, every lease
declined) in place of the heap cache, and the row-list merge in place of
the columnar one.  Add a reference by adding a row.
"""

import pytest

from repro.atlas.measurement import Measurement
from repro.atlas.results import ResultSet
from repro.core.campaign import CAMPAIGNS
from repro.dns.message import Message, Rcode
from repro.dns.zone import Zone
from repro.net.latency import LatencyModel
from repro.resolver import recursive
from repro.resolver.recursive import RecursiveResolver
from repro.runner import merge

from tests.atlas import reference_results
from tests.atlas.reference_measurement import reference_run
from tests.core.test_campaign_registry import ORACLE, _run, _sha
from tests.resolver.reference_cache import ScanReferenceCache
from tests.resolver.reference_resolver import reference_resolve


def stdlib_rtt(model, src, dst, rng=None):
    """``LatencyModel.rtt`` with the stdlib drawing the jitter."""
    sampler = rng or model._rng
    return model.base_rtt_ms(src, dst) * sampler.lognormvariate(0.0, model._jitter_sigma) / 1000.0


def stdlib_last_mile_rtt(model, rng=None):
    """``LatencyModel.last_mile_rtt`` with the stdlib drawing the jitter."""
    sampler = rng or model._rng
    return model.last_mile_ms * sampler.lognormvariate(0.0, model._jitter_sigma) / 1000.0


def cold_respond(zone, query):
    """``Zone.respond`` compiling every body afresh: ``_compiled`` is never
    read, so no response can come from a stale memo."""
    question = query.question
    if question is None:
        return query.make_response(rcode=Rcode.FORMERR)
    body = zone._compile(question)
    return Message(
        id=query.id,
        rcode=body.rcode,
        flags=body.flags[query.flags.rd],
        question=question,
        answer=list(body.answer),
        authority=list(body.authority),
        additional=list(body.additional),
    )


def row_list_merge(parts):
    """``merge_result_sets`` by the row-list reference: each columnar part
    goes in as its rows, and the merged rows come back as a columnar set."""
    merged = reference_results.merge_result_sets(
        [reference_results.ResultSet(part.results, spec=part.spec) for part in parts]
    )
    return ResultSet(merged.results, spec=merged.spec)


#: The campaigns whose clients are no Atlas population: the crawler
#: iterates by itself, without a resolver, and the grid cells drive their
#: clients with loops of their own.
GRID = {"crawl", "ddos", "ecs", "prefetch", "push"}

#: name -> (owner, attribute, the reference to put there, the campaigns
#: that never get there).  The swap happens before any population is
#: built, so every stub binds the latency references as its client leg.
REFERENCES = {
    "branching-resolver": (RecursiveResolver, "resolve", reference_resolve, {"crawl"}),
    "per-query-kernel": (Measurement, "run", reference_run, GRID),
    "stdlib-rtt": (LatencyModel, "rtt", stdlib_rtt, set()),
    "stdlib-last-mile": (LatencyModel, "last_mile_rtt", stdlib_last_mile_rtt, GRID),
    "cold-zone": (Zone, "respond", cold_respond, set()),
    "scan-cache": (recursive, "Cache", ScanReferenceCache, {"crawl"}),
    "row-list-merge": (merge, "merge_result_sets", row_list_merge, GRID | {"t10-controlled"}),
}


@pytest.mark.parametrize("reference", sorted(REFERENCES))
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_bytes_survive_the_reference(name, reference, tmp_path, capsys, monkeypatch):
    owner, attribute, slow, bypassing = REFERENCES[reference]
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return slow(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)
    # Serial: the swap lives in this process, and results never depend on
    # the worker count anyway (the registry test holds that).
    assert tuple(map(_sha, _run(name, 1, tmp_path, capsys))) == ORACLE[name][1:]
    assert bool(calls) == (name not in bypassing)
