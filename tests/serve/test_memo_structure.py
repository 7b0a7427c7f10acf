"""The cache keeps no subscribers: the memo pulls validity, nobody pushes it.

Calls are profiled by code object (``sys.setprofile``; builtins by
qualified name), as in ``tests/metrics/test_count_once_structure.py``, so
the checks are exact and independent of host speed:

- a write to a memo-fronted resolver's cache — ``put``, ``expire_now``,
  ``refresh_expiry``, ``put_negative``, ``clear`` — calls nothing in
  :mod:`repro.serve`;
- a memo hit calls no function inside :meth:`ResponseMemo.get` beyond
  its dict probe: the stamps are checked inline;
- a memo hit is one frame, :meth:`DnsFrontend.fast_answer`, which reads
  the sim clock, checks the stamps and counts the hit inline: its only
  calls are the clocks, the memo probe and the latency histogram, none of
  them into :mod:`repro.resolver` but the popularity tracker's hook under
  ``--predict`` (the memo counts the hit, and a registry snapshot adds it
  into the resolver's and cache's counts), and ``serve.rcode`` serializes
  as it did when a plain dict tallied it;
- a fast-path miss, on an absent key or a lapsed image, probes the memo
  once: :meth:`ResponseMemo.get` is handed the entry the inline probe found;
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
from repro.metrics import Histogram
from repro.resolver import RecursiveResolver
from repro.resolver.cache import Credibility
from repro.serve import ServeConfig, build_frontend
from repro.serve.frontend import DnsFrontend
from repro.serve.memo import ResponseMemo
from tests.conftest import soa_rrset
from tests.metrics.test_count_once_structure import calls
from tests.serve.test_frontend import scripted_query_mix

SERVE_DIR = str(Path(repro.serve.__file__).parent)
DNS_DIR = str(Path(repro.dns.__file__).parent)
CACHE_FILE = repro.resolver.cache.__file__
RESOLVER_DIR = str(Path(repro.resolver.__file__).parent)
WIRE_FILE = repro.dns.wire.__file__
CODEC = (Message.from_wire.__func__.__code__, Message.to_wire.__code__)
QNAME = Name("www.domain1.nl.")
KEY = (QNAME, RdataType.A, RdataClass.IN)


def memoized_frontend(wall_clock=lambda: 5.0, **config):
    """A frontend whose memo holds the answer to one repeat query."""
    frontend, _ = build_frontend(ServeConfig(world="nl", **config), wall_clock=wall_clock)
    wire = Message.make_query(QNAME, RdataType.A, id=1).to_wire()
    frontend.handle_wire(wire, "c")
    frontend.handle_wire(wire, "c")
    assert len(frontend.memo) == 1
    return frontend, wire


def inside(seen, path: str) -> set:
    """The code objects in ``seen`` defined under ``path``."""
    return {
        code for code in seen
        if not isinstance(code, str) and code.co_filename.startswith(path)
    }


WRITES = {
    "put": lambda cache, now: cache.put(
        RRset(QNAME, RdataType.A, 60, [A("192.0.2.1")]), Credibility.AUTH_ANSWER, now
    ),
    "expire_now": lambda cache, now: cache.expire_now(KEY, now),
    "refresh_expiry": lambda cache, now: cache.refresh_expiry(KEY, now),
    "put_negative": lambda cache, now: cache.put_negative(
        QNAME, RdataType.A, True, now, soa_rrset()
    ),
    "clear": lambda cache, now: cache.clear(),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_cache_write_calls_nothing_in_serve(write):
    frontend, _ = memoized_frontend()
    seen = calls(partial(WRITES[write], frontend.resolver.cache, frontend.bridge.now()))
    assert inside(seen, SERVE_DIR) == set()


def test_a_memo_hit_calls_nothing_inside_get():
    frontend, wire = memoized_frontend()
    memo = frontend.memo
    seen = calls(partial(memo.get, wire[2:], frontend.bridge.now()))
    assert memo.hits == 1
    del seen["setprofile"]  # the profiler switching itself off
    assert seen == Counter({ResponseMemo.get.__code__: 1, "dict.get": 1})


def wall_clock() -> float:
    return 5.0


def test_a_memo_hit_makes_only_its_accounting_calls():
    """One frame: the sim clock, the stamps and the counts are inline, and
    the latency is the one call into the histogram."""
    frontend, wire = memoized_frontend(wall_clock)
    seen = calls(partial(frontend.fast_answer, wire, "c"))
    assert frontend.memo.hits == 1
    del seen["setprofile"]
    assert seen == Counter({
        DnsFrontend.fast_answer.__code__: 1,
        "monotonic": 2,  # started, then the latency
        wall_clock.__code__: 1,  # the sim clock
        "dict.get": 1,  # the memo probe
        Histogram.observe.__code__: 1,
    })


@pytest.mark.parametrize("miss", ["absent", "lapsed"])
def test_a_fast_path_miss_makes_the_calls_it_made_before_the_inline_hit(miss):
    """A miss costs five calls, one fewer than when every memo probe went
    through ``WallClockBridge.now`` and ``ResponseMemo.get``: the bridge
    frame is gone, and the inline probe's ``dict.get`` is the only one —
    ``ResponseMemo.get`` is handed the entry it found."""
    frontend, wire = memoized_frontend(wall_clock)
    if miss == "absent":
        wire = Message.make_query(Name("www.domain2.nl."), RdataType.A, id=1).to_wire()
    else:
        frontend.resolver.cache.expire_now(KEY, frontend.bridge.now())
    seen = calls(partial(frontend.fast_answer, wire, "c"))
    assert frontend.memo.misses == 1
    del seen["setprofile"]
    assert seen == Counter({
        DnsFrontend.fast_answer.__code__: 1,
        "monotonic": 1,  # started; a miss observes no latency
        wall_clock.__code__: 1,
        "dict.get": 1,  # the inline probe; the full rule reuses its entry
        ResponseMemo.get.__code__: 1,
    })


@pytest.mark.parametrize("predict", [False, True])
def test_a_memo_hit_calls_into_the_resolver_only_to_track(predict):
    frontend, wire = memoized_frontend(predict=predict)
    seen = calls(partial(frontend.fast_answer, wire, "c"))
    assert frontend.memo.hits == 1
    tracked = {RecursiveResolver._track.__code__} if predict else set()
    assert inside(seen, RESOLVER_DIR) == tracked


#: ``serve.rcode`` after the scripted query mix, as serialized when the
#: frontend tallied rcodes in a plain dict.
RCODE_JSON = """\
    "serve.rcode": {
      "domain": "host",
      "kind": "labeled_counter",
      "values": {
        "NOERROR": 5,
        "NOTIMP": 1,
        "NXDOMAIN": 1
      }
    }"""


def test_rcode_tallies_serialize_as_before():
    text = scripted_query_mix().registry.snapshot().to_json(include_host=True)
    start = text.index('    "serve.rcode": ')
    assert text[start:text.index("\n    }", start) + 6] == RCODE_JSON


def test_a_patched_hit_calls_nothing_in_the_codec_or_cache():
    wall = [5.0]
    frontend, wire = memoized_frontend(lambda: wall[0])
    wall[0] += 1.5  # past the encoded TTL's tick
    answers = []
    seen = calls(lambda: answers.append(frontend.fast_answer(wire, "c")))
    assert answers[0] is not None and frontend.memo.hits == 1
    assert inside(seen, DNS_DIR) | inside(seen, CACHE_FILE) == set()


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
    assert inside(seen, RESOLVER_DIR) == set()


@pytest.mark.parametrize("renumbered", [False, True])
def test_a_lapsed_slow_pass_runs_the_codec_only_on_a_shape_change(renumbered):
    frontend, wire, _ = lapsed_frontend(renumbered)
    results = []
    seen = calls(lambda: results.append(frontend.handle_wire(wire, "c")))
    assert [seen[code] for code in CODEC] == ([1, 1] if renumbered else [0, 0])
    if not renumbered:
        assert inside(seen, WIRE_FILE) == set()
    # Either way the slow pass re-stamped the image: the next repeat hits.
    assert frontend.fast_answer(wire, "c") == results[0].wire
