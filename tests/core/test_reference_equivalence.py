"""Fast ≡ slow over the campaign registry — the trust harness, leg (a).

Every accelerated path in ``src/`` has (or will have) a slow reference
that lives under ``tests/``.  This module is the one place they are
swapped in: each entry of :data:`REFERENCES` replaces one production
attribute with its reference, and every registered campaign, run at the
smoke size ``test_campaign_registry.py`` pins, must then produce the very
bytes recorded there — stdout table, ``--metrics`` JSON and manifest.

The branch-per-feature ``resolve()`` in place of the construction-time
resolve plan, and the per-query probe loop in place of the one that
answers a live entry's hits from a lease.  Add a reference by adding a row.
"""

import pytest

from repro.atlas.measurement import Measurement
from repro.core.campaign import CAMPAIGNS
from repro.resolver.recursive import RecursiveResolver

from tests.atlas.reference_measurement import reference_run
from tests.core.test_campaign_registry import ORACLE, _run, _sha
from tests.resolver.reference_resolver import reference_resolve

#: name -> (owner, attribute, the reference to put there, the campaigns
#: that never get there: the crawler iterates by itself, without a
#: resolver, and the grid cells drive their clients with loops of their own).
REFERENCES = {
    "branching-resolver": (RecursiveResolver, "resolve", reference_resolve, {"crawl"}),
    "per-query-kernel": (
        Measurement, "run", reference_run, {"crawl", "ddos", "ecs", "prefetch", "push"},
    ),
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
