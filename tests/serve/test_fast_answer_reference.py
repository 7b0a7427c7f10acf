"""The inlined memo hit ≡ the layered one it replaced.

:meth:`DnsFrontend.fast_answer` reads the sim clock, checks the memo
entry's stamps and writes the hit's accounting inline.
:class:`~tests.serve.reference_frontend.ReferenceFrontend` does the same
through :meth:`WallClockBridge.now`, :meth:`ResponseMemo.get` and
:meth:`DnsFrontend._account`.  Fed the same streams — the scripted query
mix and the memo property's step streams, with ``--querylog`` and
``--predict`` armed — both give the same response bytes, memo counts,
query-log lines and registry snapshots.  The inline clock read is
:meth:`WallClockBridge.now`'s, steps backwards included.
"""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.name import Name
from repro.serve import ServeConfig, build_frontend
from repro.serve.bridge import WallClockBridge
from repro.serve.frontend import DnsFrontend
from repro.serve.memo import DEFAULT_MEMO_CAPACITY, ResponseMemo
from tests.serve.reference_frontend import ReferenceFrontend
from tests.serve.test_frontend import FakeWall, scripted_query_mix, serve_counts
from tests.serve.test_response_memo import mutate, mutations, queries, query_wire


def twins(directory: Path, **config) -> list[DnsFrontend]:
    """A production frontend and a reference one, each with its own
    query log in ``directory`` and its own settable wall clock."""
    built = []
    for cls in (DnsFrontend, ReferenceFrontend):
        path = directory / f"{cls.__name__}.jsonl"
        with mock.patch("repro.serve.config.DnsFrontend", cls):
            frontend, _ = build_frontend(
                ServeConfig(world="nl", querylog_path=str(path), **config),
                wall_clock=FakeWall(),
            )
        assert type(frontend) is cls
        built.append(frontend)
    return built


def observed(frontend: DnsFrontend, directory: Path) -> tuple:
    """Everything a memo hit may move, once the query log is flushed."""
    frontend.close()
    memo = frontend.memo
    log = (directory / f"{type(frontend).__name__}.jsonl").read_text()
    snapshot = frontend.registry.snapshot().without_host()
    counts = (memo.hits, memo.misses, memo.negative_hits)
    return counts, log, snapshot.metrics, serve_counts(frontend)


@pytest.mark.parametrize("predict", [False, True])
def test_scripted_query_mix_matches_the_reference(tmp_path, predict):
    results = []
    for frontend in twins(tmp_path, max_udp_payload=100, predict=predict):
        responses = []
        scripted_query_mix(frontend, responses)
        results.append((responses, observed(frontend, tmp_path)))
    (responses, seen), reference = results
    assert seen[0][0] == 1  # the mix's memo hit
    assert (responses, seen) == reference


@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(st.one_of(queries, queries, mutations), min_size=2, max_size=25),
    predict=st.booleans(),
    capacity=st.sampled_from([DEFAULT_MEMO_CAPACITY, 1]),
)
def test_memo_property_streams_match_the_reference(tmp_path_factory, steps, predict, capacity):
    directory = tmp_path_factory.mktemp("twins")
    frontends = twins(directory, predict=predict)
    for frontend in frontends:
        frontend.memo = ResponseMemo(capacity)
        frontend.bridge.wall_clock.at = 1000.0
    # Three same-instant repeats of a name no step touches: a fresh
    # resolution, a cache hit that memoizes, and a memo hit.
    for kind, name, *query in steps + [("udp", "www.domain6.nl.", 6, False, 0.0)] * 3:
        if kind in ("udp", "tcp"):
            message_id, edns, advance = query
            wire = query_wire(name, id=message_id, edns=edns)
        answers = []
        for frontend in frontends:
            if kind == "tcp":
                frontend.bridge.wall_clock.at += advance
                answers.append(frontend.handle_wire(wire, "127.0.0.1", via_tcp=True).wire)
            elif kind == "udp":
                frontend.bridge.wall_clock.at += advance
                fast = frontend.fast_answer(wire, "127.0.0.1")
                answers.append(fast or frontend.handle_wire(wire, "127.0.0.1").wire)
            else:
                mutate(frontend, kind, Name(name))
        assert answers[:1] == answers[1:]
    production, reference = (observed(frontend, directory) for frontend in frontends)
    assert production[0][0] >= 1
    assert production == reference


@pytest.mark.parametrize("sim_start, time_scale", [(0.0, 1.0), (1234.5, 7.25)])
def test_the_inline_clock_read_is_the_bridges(sim_start, time_scale):
    """Each hit reads the sim instant ``WallClockBridge.now`` reads on the
    same wall clock, and moves the high-water mark as it would: the wall
    clock here steps backwards twice."""
    wall = FakeWall(10.0)
    frontend, _ = build_frontend(ServeConfig(world="nl"), wall_clock=wall)
    frontend.bridge = WallClockBridge(sim_start, time_scale, wall)
    twin = WallClockBridge(sim_start, time_scale, wall)
    wire = query_wire("www.nosuch1.nl.", id=1)
    frontend.handle_wire(wire, "c")  # an NXDOMAIN is memoized on its first pass
    instants = []
    frontend.resolver.track_arrival = lambda qname, qtype, now: instants.append(now)
    for at in (10.0, 10.3, 10.2, 11.7, 11.7, 9.0, 12.1):
        wall.at = at
        assert frontend.fast_answer(wire, "c") is not None
        assert instants[-1] == twin.now()
        assert frontend.bridge.high_water == twin.high_water
    assert frontend.memo.hits == 7
