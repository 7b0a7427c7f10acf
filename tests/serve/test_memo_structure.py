"""The cache keeps no subscribers: the memo pulls validity, nobody pushes it.

Calls are profiled by code object (``sys.setprofile``; builtins by
qualified name), as in ``tests/metrics/test_count_once_structure.py``, so
the checks are exact and independent of host speed:

- a write to a memo-fronted resolver's cache — ``put``, ``expire_now``,
  ``refresh_expiry``, ``put_negative``, ``clear`` — calls nothing in
  :mod:`repro.serve`;
- a memo hit calls no function inside :meth:`ResponseMemo.get` beyond
  its dict probe: the stamps are checked inline;
- a patched hit, a tick later, calls nothing in the codec
  (:mod:`repro.dns`) or the cache (:mod:`repro.resolver.cache`);
- a fast-path miss on a lapsed image calls nothing in
  :mod:`repro.resolver`: the slow pass does all the resolving;
- that slow pass, when the answer kept its shape, calls nothing in
  :mod:`repro.dns.wire` and neither decodes nor encodes a message; a
  changed shape decodes and encodes exactly once.
"""

from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import repro.dns
import repro.dns.wire
import repro.resolver
import repro.resolver.cache
import repro.serve
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdtypes import A, RdataClass, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Credibility
from repro.serve import ServeConfig, build_frontend
from repro.serve.memo import ResponseMemo
from tests.metrics.test_count_once_structure import calls

SERVE_DIR = str(Path(repro.serve.__file__).parent)
DNS_DIR = str(Path(repro.dns.__file__).parent)
CACHE_FILE = repro.resolver.cache.__file__
RESOLVER_DIR = str(Path(repro.resolver.__file__).parent)
WIRE_FILE = repro.dns.wire.__file__
CODEC = (Message.from_wire.__func__.__code__, Message.to_wire.__code__)
QNAME = Name("www.domain1.nl.")
KEY = (QNAME, RdataType.A, RdataClass.IN)


def memoized_frontend(wall_clock=lambda: 5.0):
    """A frontend whose memo holds the answer to one repeat query."""
    frontend, _ = build_frontend(ServeConfig(world="nl"), wall_clock=wall_clock)
    wire = Message.make_query(QNAME, RdataType.A, id=1).to_wire()
    frontend.handle_wire(wire, "c")
    frontend.handle_wire(wire, "c")
    assert len(frontend.memo) == 1
    return frontend, wire


WRITES = {
    "put": lambda cache, now: cache.put(
        RRset(QNAME, RdataType.A, 60, [A("192.0.2.1")]), Credibility.AUTH_ANSWER, now
    ),
    "expire_now": lambda cache, now: cache.expire_now(KEY, now),
    "refresh_expiry": lambda cache, now: cache.refresh_expiry(KEY, now),
    "put_negative": lambda cache, now: cache.put_negative(QNAME, RdataType.A, True, now),
    "clear": lambda cache, now: cache.clear(),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_cache_write_calls_nothing_in_serve(write):
    frontend, _ = memoized_frontend()
    seen = calls(partial(WRITES[write], frontend.resolver.cache, frontend.bridge.now()))
    assert {
        code for code in seen
        if not isinstance(code, str) and code.co_filename.startswith(SERVE_DIR)
    } == set()


def test_a_memo_hit_calls_nothing_inside_get():
    frontend, wire = memoized_frontend()
    memo = frontend.memo
    seen = calls(partial(memo.get, wire[2:], frontend.bridge.now()))
    assert memo.hits == 1
    del seen["setprofile"]  # the profiler switching itself off
    assert seen == Counter({ResponseMemo.get.__code__: 1, "dict.get": 1})


def test_a_patched_hit_calls_nothing_in_the_codec_or_cache():
    wall = [5.0]
    frontend, wire = memoized_frontend(lambda: wall[0])
    wall[0] += 1.5  # past the encoded TTL's tick
    answers = []
    seen = calls(lambda: answers.append(frontend.fast_answer(wire, "c")))
    assert answers[0] is not None and frontend.memo.hits == 1
    assert {
        code for code in seen
        if not isinstance(code, str)
        and (code.co_filename.startswith(DNS_DIR) or code.co_filename == CACHE_FILE)
    } == set()


def lapsed_frontend(renumbered: bool):
    """A memoized frontend whose image lapsed when the cache entry behind
    it was rewritten — with its own rdatas, or ``renumbered`` — and the
    calls of the fast-path miss that saw it."""
    frontend, wire = memoized_frontend()
    cache = frontend.resolver.cache
    entry = cache.peek(QNAME, RdataType.A)
    rdatas = [A("192.0.2.1")] if renumbered else entry.rrset.rdatas
    rrset = RRset(QNAME, RdataType.A, entry.rrset.ttl, rdatas)
    cache.put(rrset, Credibility.AUTH_ANSWER, frontend.bridge.now())
    answers = []
    seen = calls(lambda: answers.append(frontend.fast_answer(wire, "c")))
    assert answers == [None] and len(frontend.memo) == 1  # held, not served
    return frontend, wire, seen


def test_a_lapsed_fast_miss_calls_nothing_in_the_resolver():
    _, _, seen = lapsed_frontend(renumbered=False)
    assert {
        code for code in seen
        if not isinstance(code, str) and code.co_filename.startswith(RESOLVER_DIR)
    } == set()


@pytest.mark.parametrize("renumbered", [False, True])
def test_a_lapsed_slow_pass_runs_the_codec_only_on_a_shape_change(renumbered):
    frontend, wire, _ = lapsed_frontend(renumbered)
    results = []
    seen = calls(lambda: results.append(frontend.handle_wire(wire, "c")))
    assert [seen[code] for code in CODEC] == ([1, 1] if renumbered else [0, 0])
    if not renumbered:
        assert {
            code for code in seen
            if not isinstance(code, str) and code.co_filename == WIRE_FILE
        } == set()
    # Either way the slow pass re-stamped the image: the next repeat hits.
    assert frontend.fast_answer(wire, "c") == results[0].wire
