"""The response-memo contract: byte-identity, expiry, and stamps.

The fast path is only admissible if a memo hit is *indistinguishable on
the wire* from running the full pipeline at the same instant.  The
property test here drives a memoized frontend over a query sequence with
arbitrary fractional time advances and cache mutations interleaved, and
requires every fast answer to equal the same-instant slow path — which
exercises exactly the hard parts, the TTL tick boundary and a cache that
changes under a memoized answer.  The directed tests pin the lifecycle:
validity bounds, stamps that move on a cache write (incl. a
``--predict`` refresh) and stand on a sibling-type write, FIFO eviction,
the ECS and CNAME-chain declines, and re-memoization afterwards.
"""

import math
import random
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.ecs import ClientSubnet
from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import AAAA, CNAME, A, RdataClass, RdataType
from repro.dns.record import RRset
from repro.resolver.cache import Cache, Credibility
from repro.serve import ServeConfig, build_frontend
from repro.serve.config import WORLD_BUILDERS
from repro.serve.frontend import ServeResult
from repro.serve.memo import DEFAULT_MEMO_CAPACITY, ResponseMemo
from tests.conftest import soa_rrset
from tests.core.test_conservation import conservation_problems
from tests.serve.test_frontend import FakeWall


def make_frontend(*, memo: bool = True, at: float = 0.0, **config_kwargs):
    """A frontend whose WallClockBridge runs on a settable wall clock read
    at 0 when the bridge was built, at time scale 1: its sim time is
    exactly ``frontend.bridge.wall_clock.at``, which only moves forward."""
    frontend, registry = build_frontend(
        ServeConfig(world="nl", memo=memo, **config_kwargs), wall_clock=FakeWall()
    )
    frontend.bridge.wall_clock.at = at
    return frontend, registry


def query_wire(name: str, qtype=RdataType.A, id: int = 0, edns: bool = False) -> bytes:
    query = Message.make_query(name, qtype, id=id)
    if edns:
        query.use_edns()
    return query.to_wire()


def serve(frontend, wire: bytes, client: str = "127.0.0.1"):
    """What the server loop does: try the memo, else the full pipeline."""
    fast = frontend.fast_answer(wire, client)
    if fast is not None:
        return fast, True
    return frontend.handle_wire(wire, client).wire, False


def full_pipeline(frontend, wire: bytes) -> bytes:
    """The slow path with the memo detached, so the reference stays
    decode → resolve → encode: with the memo on, a lapsed form is answered
    from its image, and any slow pass may memoize."""
    memo, frontend.memo = frontend.memo, None
    try:
        return frontend.handle_wire(wire, "127.0.0.1").wire
    finally:
        frontend.memo = memo


# -- the property: memoized == slow path, byte for byte --------------------

def mutate(frontend, kind: str, name: Name) -> None:
    """One cache mutation behind the memo's back, at the frontend's instant."""
    cache = frontend.resolver.cache
    now = frontend.bridge.wall_clock.at
    key = (name, RdataType.A, RdataClass.IN)
    if kind == "expire_now":
        cache.expire_now(key, now)
    elif kind == "refresh_expiry":
        cache.refresh_expiry(key, now)
    elif kind == "put_aaaa":
        sibling = RRset(name, RdataType.AAAA, 300, [AAAA("2001:db8::1")])
        cache.put(sibling, Credibility.AUTH_ANSWER, now)
    elif kind == "put_negative":
        cache.put_negative(name, RdataType.A, True, now, soa_rrset())
    elif kind == "put_cname":
        # The owner becomes an alias, beside whatever else it holds.
        target = Name("www.domain1.nl." if name == Name("www.domain0.nl.") else "www.domain0.nl.")
        cache.put(RRset(name, RdataType.CNAME, 300, [CNAME(target)]), Credibility.AUTH_ANSWER, now)
    elif kind == "clear":
        cache.clear()
    elif kind == "pump":
        # The server's --predict loop, run once the clock reaches the
        # name's refresh lead window (a no-op without predict).
        entry = cache.peek(name, RdataType.A)
        if entry is not None:
            frontend.bridge.wall_clock.at = max(now, entry.expires_at - 60.0)
        frontend.pump()


ranks = st.integers(min_value=0, max_value=5)
# A name of the nl world, or one under it that does not exist (NXDOMAIN).
qnames = st.builds(str.format, st.sampled_from(["www.domain{}.nl.", "www.nosuch{}.nl."]), ranks)
queries = st.tuples(
    st.sampled_from(["udp", "udp", "udp", "tcp"]),
    qnames,
    st.integers(min_value=0, max_value=0xFFFF),  # DNS ID
    st.booleans(),  # EDNS
    # Sim advance: within a tick, across many, or past every expiry.
    st.one_of(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=4000.0),
    ),
)
mutations = st.tuples(
    st.sampled_from(
        ["expire_now", "refresh_expiry", "put_aaaa", "put_negative", "put_cname", "clear",
         "pump"]
    ),
    qnames,
)


def memo_state(memo: ResponseMemo) -> tuple:
    return memo.hits, memo.misses, memo.negative_hits, dict(memo.entries)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.one_of(queries, queries, mutations), min_size=2, max_size=25),
    predict=st.booleans(),
    capacity=st.sampled_from([DEFAULT_MEMO_CAPACITY, 1]),
)
def test_memoized_responses_byte_identical_to_slow_path(steps, predict, capacity):
    """Any query sequence — names that exist and names that do not, over
    UDP and TCP — any clock advances — within a tick, across many, past
    expiry — any cache mutations in between, with a memo of any capacity:
    whenever the memo answers, patched or not, its bytes equal what the
    full pipeline produces for the same wire at the same instant.  A TCP
    query leaves the memo as it was.  After every step the sim snapshot
    conserves, a memo hit standing in for the negative-cache probe of the
    cache hit it replaces.

    (The comparison is against the *same* frontend's slow path, not a
    twin server: a memo hit legitimately skips one simulated resolution,
    so a twin's stochastic resolution history — and with it the exact
    insert instants behind its TTL bytes — diverges from the hot
    frontend's.  The contract is equivalence at the serving instant.
    A fast answer never runs ``--predict`` maintenance — the server's
    background loop does — so an instant where maintenance is due,
    which the slow path would run before answering, compares nothing.)
    """
    frontend, registry = make_frontend(memo=True, at=1000.0, predict=predict)
    frontend.memo = memo = ResponseMemo(capacity)
    for kind, name, *query in steps:
        if kind in ("udp", "tcp"):
            message_id, edns, advance = query
            frontend.bridge.wall_clock.at += advance
            wire = query_wire(name, id=message_id, edns=edns)
        if kind == "tcp":
            before = memo_state(memo)
            assert frontend.handle_wire(wire, "127.0.0.1", via_tcp=True).wire is not None
            assert memo_state(memo) == before
        elif kind == "udp":
            fast = frontend.fast_answer(wire, "127.0.0.1")
            if frontend.pump():
                fast = None
            if fast is None:
                frontend.handle_wire(wire, "127.0.0.1")
            else:
                slow = full_pipeline(frontend, wire)
                assert fast == slow, f"{name} at={frontend.bridge.wall_clock.at}"
        else:
            mutate(frontend, kind, Name(name))
        assert conservation_problems(registry.snapshot().metrics) == []
    # Same-instant repeats at the end: the memo must actually engage (and
    # still match) or this property is testing nothing.  An NXDOMAIN is
    # memoized by its first slow pass, and its repeat is a negative hit.
    # A positive answer takes two slow passes — a *fresh* resolution's
    # answer is aged by the simulated resolution latency, so only the
    # repeat (a cache hit, aged at the serving instant) is guaranteed to
    # memoize.  The names are ones no step touched (ranks run 0–5): a CNAME
    # written at an owner turns its answer into a chain, never memoized.
    for name, passes in (("www.nosuch6.nl.", 1), ("www.domain6.nl.", 2)):
        wire = query_wire(name, id=0xBEEF)
        for _ in range(passes):
            frontend.handle_wire(wire, "127.0.0.1")
        negative_hits = memo.negative_hits
        fast = frontend.fast_answer(wire, "127.0.0.1")
        assert fast is not None
        if passes == 1:
            assert memo.negative_hits == negative_hits + 1
        if not frontend.pump():
            assert fast == full_pipeline(frontend, wire)
        assert conservation_problems(registry.snapshot().metrics) == []
    # A tick later a negative answer still holds until its expiry, and a
    # positive one is patched exactly when the resolver would lease its
    # cache entry (no --predict hook); either way the bytes are still the
    # slow path's.
    frontend.bridge.wall_clock.at += 1.5
    name = Name("www.domain6.nl.")
    holder = frontend.resolver.cache.get_negative(
        name, RdataType.A, frontend.bridge.wall_clock.at
    ) or frontend.resolver.hit_lease(name, RdataType.A)
    patched = frontend.fast_answer(wire, "127.0.0.1")
    assert (patched is not None) == (
        holder is not None and frontend.bridge.wall_clock.at < holder.expires_at
    )
    if patched is not None:
        assert patched == full_pipeline(frontend, wire)


@settings(max_examples=20, deadline=None)
@given(
    ids=st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=2, max_size=8)
)
def test_memo_hit_differs_only_in_id(ids):
    frontend, _ = make_frontend(at=50.0)
    frontend.handle_wire(query_wire("www.domain2.nl.", id=ids[0]), "c")
    repeat = frontend.handle_wire(query_wire("www.domain2.nl.", id=ids[0]), "c").wire
    for message_id in ids[1:]:
        hit = frontend.fast_answer(query_wire("www.domain2.nl.", id=message_id), "c")
        assert hit is not None
        assert hit[:2] == message_id.to_bytes(2, "big")
        assert hit[2:] == repeat[2:]


# -- TTL ticks -------------------------------------------------------------

def test_a_ticked_ttl_is_patched():
    """Past a tick the memo serves the TTL the slow path ages to —
    ``int(expires_at - now)``, one lower per tick — right up to the cache
    entry's expiry, where it declines."""
    frontend, _ = make_frontend(at=10.0)
    name = "www.domain3.nl."
    frontend.handle_wire(query_wire(name, id=1), "c")  # fresh resolution fills the cache
    repeat = frontend.handle_wire(query_wire(name, id=1), "c").wire  # cache hit: memoized
    ttl = Message.from_wire(repeat).rrsets(Section.ANSWER)[0].ttl
    entry = frontend.resolver.cache.peek(Name(name), RdataType.A)
    boundary = entry.expires_at - ttl  # the instant before the next tick

    def fast_ttl(at: float) -> int:
        """The fast answer's TTL at ``at``, checked against the slow path."""
        frontend.bridge.wall_clock.at = at
        wire = query_wire(name, id=2)
        fast = frontend.fast_answer(wire, "c")
        assert fast is not None
        assert fast == frontend.handle_wire(wire, "c").wire
        return Message.from_wire(fast).rrsets(Section.ANSWER)[0].ttl

    assert fast_ttl(boundary) == ttl  # still exact: TTL has not ticked
    # One ulp past the bound float rounding may keep int(expires - now)
    # at the old value; the patch uses the slow path's arithmetic either way.
    assert fast_ttl(math.nextafter(boundary, math.inf)) in (ttl, ttl - 1)
    for tick in range(ttl):
        assert fast_ttl(boundary + tick + 1e-6) == ttl - 1 - tick
    frontend.bridge.wall_clock.at = entry.expires_at
    assert frontend.fast_answer(query_wire(name, id=3), "c") is None


def test_a_patch_spans_many_ticks():
    """One entry patched again and again, with no slow pass in between."""
    frontend, _ = make_frontend(at=10.0)
    memoized(frontend, "www.domain3.nl.")
    entry = frontend.resolver.cache.peek(Name("www.domain3.nl."), RdataType.A)
    wire = query_wire("www.domain3.nl.", id=0)
    for at in (11.5, 400.25, 3000.0, math.nextafter(entry.expires_at, -math.inf)):
        frontend.bridge.wall_clock.at = at
        fast = frontend.fast_answer(wire, "c")
        assert fast is not None
        ttl = Message.from_wire(fast).rrsets(Section.ANSWER)[0].ttl
        assert ttl == int(entry.expires_at - at)
    assert fast == frontend.handle_wire(wire, "c").wire


def test_negative_answer_memoized_until_expiry():
    frontend, registry = make_frontend(at=0.0)
    wire = query_wire("www.doesnotexist.nl.", id=7)
    first = frontend.handle_wire(wire, "c").wire
    assert Message.from_wire(first).rcode == Rcode.NXDOMAIN
    negative = frontend.resolver.cache.peek(Name("www.doesnotexist.nl."), RdataType.A)
    assert negative.credibility is Credibility.NXDOMAIN

    for at in (1.5, math.nextafter(negative.expires_at, -math.inf)):
        frontend.bridge.wall_clock.at = at
        hit = frontend.fast_answer(query_wire("www.doesnotexist.nl.", id=8), "c")
        assert hit is not None  # reusable across ticks, up to the expiry instant
        assert hit[2:] == first[2:]

    frontend.bridge.wall_clock.at = negative.expires_at
    assert frontend.fast_answer(query_wire("www.doesnotexist.nl.", id=9), "c") is None
    assert registry.snapshot().value("serve.memo_hits") == 2


def test_a_cached_nxdomain_leaves_ttl_patching_on():
    """A Zipf round across many TTL ticks patches memoized TTLs exactly as
    often, with exactly the same bytes, whether or not another name's
    NXDOMAIN is cached: a negative answer decides only its own key."""

    def hot_round(nxdomain: bool):
        frontend, _ = make_frontend(at=0.0)
        if nxdomain:
            frontend.resolver.cache.put_negative(
                Name("www.doesnotexist.nl."), RdataType.A, True, 0.0, soa_rrset()
            )
        rng = random.Random(1)
        ranks = rng.choices(range(20), weights=[1.0 / (rank + 1) for rank in range(20)], k=2000)
        answers = []
        for index, rank in enumerate(ranks):
            frontend.bridge.wall_clock.at = index * 0.01  # 20 s: every answer ticks
            wire = query_wire(f"www.domain{rank}.nl.", id=index)
            fast = frontend.fast_answer(wire, "c")
            answers.append(fast or frontend.handle_wire(wire, "c").wire)
        return answers, frontend.memo.hits, frontend.memo.misses

    plain = hot_round(False)
    assert plain[1] > 1900  # the misses are the first sight of each name
    assert hot_round(True) == plain


# -- stamps ----------------------------------------------------------------

def memoized(frontend, *names: str) -> None:
    """Resolve each name twice: the repeat, a cache hit, is memoized."""
    for message_id, name in enumerate(names):
        frontend.handle_wire(query_wire(name, id=message_id), "c")
        frontend.handle_wire(query_wire(name, id=message_id), "c")


def test_cache_write_invalidates_affected_entry_only():
    frontend, _ = make_frontend(at=5.0)
    memoized(frontend, "www.domain1.nl.", "www.domain2.nl.")
    memo = frontend.memo
    assert len(memo) == 2

    # Forced expiry moves the entry's expiry away from the stamp.
    cache = frontend.resolver.cache
    entry = cache.peek(Name("www.domain1.nl."), RdataType.A)
    cache.expire_now(entry.key(), now=frontend.bridge.wall_clock.at)

    assert frontend.fast_answer(query_wire("www.domain1.nl.", id=3), "c") is None
    assert len(memo) == 2  # lapsed: held for its slow pass, never served
    assert frontend.fast_answer(query_wire("www.domain2.nl.", id=4), "c") is not None


def test_sibling_type_write_keeps_the_hit():
    """An AAAA write for the owner of a memoized A answer moves no stamp:
    the A response's bytes are still what the slow path serves."""
    frontend, _ = make_frontend(at=5.0)
    memoized(frontend, "www.domain1.nl.")
    sibling = RRset(Name("www.domain1.nl."), RdataType.AAAA, 300, [AAAA("2001:db8::1")])
    frontend.resolver.cache.put(sibling, Credibility.AUTH_ANSWER, frontend.bridge.wall_clock.at)

    wire = query_wire("www.domain1.nl.", id=9)
    hit = frontend.fast_answer(wire, "c")
    assert hit is not None
    assert hit == frontend.handle_wire(wire, "c").wire


def test_ecs_bearing_repeat_is_not_fast_answered():
    """Stamps cannot see the scoped overlay, so a response that echoes
    ECS is never memoized."""
    frontend, _ = make_frontend(at=5.0, ecs=True)
    query = Message.make_query("www.domain1.nl.", RdataType.A, id=1)
    query.use_edns(options=ClientSubnet.from_ip("198.51.100.0", 24).to_wire())
    wire = query.to_wire()
    frontend.handle_wire(wire, "c")
    assert frontend.handle_wire(wire, "c").wire is not None
    assert frontend.fast_answer(wire, "c") is None
    frontend.bridge.wall_clock.at += 1.5  # nor after a tick: there is nothing to patch
    assert frontend.fast_answer(wire, "c") is None


def test_alias_write_cuts_a_cname_chain_short():
    """A CNAME chain is not memoized: a write that lets the alias owner
    answer directly moves none of the chain's entries, yet the slow path
    now serves it."""
    frontend, _ = make_frontend(at=5.0)
    memoized(frontend, "www.domain2.nl.")
    cache = frontend.resolver.cache
    alias = Name("alias.domain1.nl.")
    chain = RRset(alias, RdataType.CNAME, 3600, [CNAME(Name("www.domain2.nl."))])
    cache.put(chain, Credibility.AUTH_ANSWER, 5.0)
    wire = query_wire("alias.domain1.nl.", id=7)
    chained, _ = serve(frontend, wire)
    assert [rrset.rdtype for rrset in Message.from_wire(chained).rrsets(Section.ANSWER)] == [
        RdataType.CNAME, RdataType.A,
    ]
    frontend.bridge.wall_clock.at += 1.5  # nor after a tick: there is nothing to patch
    assert serve(frontend, wire)[1] is False

    direct = RRset(alias, RdataType.A, 3600, [A("192.0.2.7")])
    cache.put(direct, Credibility.AUTH_ANSWER, frontend.bridge.wall_clock.at)
    served, _ = serve(frontend, wire)
    assert Message.from_wire(served).rrsets(Section.ANSWER) == [direct]


def test_predict_hit_past_a_tick_is_not_fast_answered():
    """With ``--predict`` the resolver grants no hit lease — its
    refresh-ahead hook must see every hit — so a ticked entry is dropped,
    not patched."""
    frontend, _ = make_frontend(at=0.0, predict=True)
    memoized(frontend, "www.domain4.nl.")
    assert frontend.fast_answer(query_wire("www.domain4.nl.", id=3), "c") is not None
    frontend.bridge.wall_clock.at = 1.5
    assert frontend.fast_answer(query_wire("www.domain4.nl.", id=4), "c") is None


def test_predict_refresh_invalidates_and_slow_path_rememoizes():
    """A ``--predict`` refresh rewrites the cache entry behind a hot
    name; the memoized bytes (older TTL feed) must die with it."""
    frontend, _ = make_frontend(at=0.0, predict=True)
    # Two arrivals make the name hot for the popularity tracker (the
    # second, a cache hit, is also the one guaranteed to memoize).
    memoized(frontend, "www.domain4.nl.")
    hit = frontend.fast_answer(query_wire("www.domain4.nl.", id=3), "c")
    assert hit is not None

    cache = frontend.resolver.cache
    entry = cache.peek(Name("www.domain4.nl."), RdataType.A)
    old_expiry = entry.expires_at
    # Jump to just inside the refresh lead window and run the background
    # pump — exactly what the server's predict loop does.
    frontend.bridge.wall_clock.at = old_expiry - 60.0
    assert frontend.pump() >= 1

    refreshed = cache.peek(Name("www.domain4.nl."), RdataType.A)
    assert refreshed.expires_at > old_expiry  # the refresh really landed
    # The refresh moved the stamp: the next query pays one slow pass and
    # then the memo is hot again with the *new* expiry feed.
    served, was_fast = serve(frontend, query_wire("www.domain4.nl.", id=3))
    assert not was_fast
    rehit = frontend.fast_answer(query_wire("www.domain4.nl.", id=4), "c")
    assert rehit is not None
    assert rehit[2:] == served[2:]


def test_cache_clear_empties_memo():
    frontend, _ = make_frontend(at=5.0)
    memoized(frontend, "www.domain1.nl.")
    assert len(frontend.memo) == 1
    frontend.resolver.cache.clear()
    assert frontend.fast_answer(query_wire("www.domain1.nl.", id=2), "c") is None
    assert len(frontend.memo) == 1  # lapsed: held for its slow pass, never served


def test_short_datagrams_miss_the_memo_and_are_malformed():
    """Every 0–11-octet prefix of a memoized query, and of the same query
    with QR set, in the serving loop's order.  No memo key is that short
    (each is a decoded query's post-ID bytes), so each is a memo miss; the
    full pipeline counts it malformed and sends nothing."""
    frontend, registry = make_frontend(at=5.0)
    memoized(frontend, "www.domain1.nl.")
    wire = query_wire("www.domain1.nl.", id=1)
    assert frontend.fast_answer(wire, "c") is not None
    response = wire[:2] + bytes([wire[2] | 0x80]) + wire[3:]
    memo = frontend.memo
    hits, misses = memo.hits, memo.misses
    for form in (wire, response):
        for length in range(12):
            assert frontend.fast_answer(form[:length], "c") is None
            assert frontend.handle_wire(form[:length], "c") == ServeResult(None, "malformed")
    assert (memo.hits, memo.misses) == (hits, misses + 24)
    assert registry.snapshot().value("serve.malformed") == 24


# -- memo on == memo off ----------------------------------------------------

def replay(
    memo: bool,
    *,
    step: float = 500e-6,
    capacity: int = DEFAULT_MEMO_CAPACITY,
    qnames: str = "www.domain{}.nl.",
    renumber_at: Optional[int] = None,
    max_entries: Optional[int] = None,
    time_scale: float = 3600,
):
    """A small ``serve_churn``: Zipf over 500 names, 2,000 queries 500 µs
    apart at ``time_scale`` (3600: most repeats arrive ticks later).

    ``step`` spaces the queries further, so cache entries expire and
    lapsed images are re-resolved; ``capacity`` bounds the memo;
    ``qnames`` names the stream (the nl world has no ``www.nosuch*``);
    ``renumber_at`` is the query at which ``www.domain0.nl.``'s A rdata
    changes in its zone; ``max_entries`` bounds the resolver cache.  Also
    returns how many times the query decoder ran, how many slow passes
    took no lapsed image, how many took one the renumbering had outdated,
    and how many memo hits had their TTLs patched.
    """
    wall = [0.0]
    worlds = []
    build = WORLD_BUILDERS["nl"]
    with mock.patch.dict(WORLD_BUILDERS, nl=lambda seed: worlds.append(build(seed)) or worlds[0]):
        frontend, registry = build_frontend(
            ServeConfig(world="nl", time_scale=time_scale, memo=memo),
            wall_clock=lambda: wall[0],
        )
    frontend.resolver.cache.max_entries = max_entries
    if memo:
        frontend.memo = ResponseMemo(capacity)
    decodes = [0]
    decode = Message.from_wire.__func__
    taken = []
    take, get = ResponseMemo.take, ResponseMemo.get
    patched = [0]

    def counted(cls, data, *args, **kwargs):
        decodes[0] += 1
        return decode(cls, data, *args, **kwargs)

    def recorded(memo, key):
        taken.append(take(memo, key))
        return taken[-1]

    def patching(memo, key, sim_now, *probed):
        # fast_answer serves an exact hit itself: what it asks the full
        # rule for (handing it the entry it probed) and gets is a hit past
        # its bound, TTLs patched.
        entry = get(memo, key, sim_now, *probed)
        patched[0] += entry is not None
        return entry

    rng = random.Random(1)
    ranks = rng.choices(range(500), weights=[1.0 / (rank + 1) for rank in range(500)], k=2000)
    responses = []
    missing = reshaped = 0
    with mock.patch.object(Message, "from_wire", classmethod(counted)), \
            mock.patch.object(ResponseMemo, "take", recorded), \
            mock.patch.object(ResponseMemo, "get", patching):
        for index, rank in enumerate(ranks):
            wall[0] = index * step
            if index == renumber_at:
                worlds[0].zone("domain0.nl.").replace("www.domain0.nl.", RdataType.A, RENUMBERED)
            wire = query_wire(qnames.format(rank), id=rng.randrange(1 << 16), edns=True)
            fast = frontend.fast_answer(wire, "127.0.0.1")
            if fast is None:
                taken.clear()
                fast = frontend.handle_wire(wire, "127.0.0.1").wire
                image = taken[0] if taken else None
                missing += image is None
                reshaped += image is not None and NEW_ADDRESS in fast and NEW_ADDRESS not in image.wire
            responses.append(fast)
    snapshot = registry.snapshot().without_host()
    assert conservation_problems(snapshot.metrics) == []
    return responses, snapshot, frontend.memo, (decodes[0], missing, reshaped, patched[0])


RENUMBERED = A("192.0.2.200")
NEW_ADDRESS = bytes([192, 0, 2, 200])


#: Resolver cache bound, time scale, and the least memo hit share: a bound
#: evicts entries, and an evicted entry's image lapses.
TICKING = {
    "unbounded": (None, 3600, 0.5),
    "bound40-scale1": (40, 1, 0.2),
    "bound40-scale3600": (40, 3600, 0.2),
    "bound200-scale1": (200, 1, 0.5),
    "bound200-scale3600": (200, 3600, 0.5),
}


@pytest.mark.parametrize("case", sorted(TICKING))
def test_memo_on_and_off_agree_under_a_ticking_clock(case):
    """Patched hits are invisible: the same bytes and the same sim-domain
    counters as running every query through the full pipeline — with the
    resolver cache bounded too, where a hit the memo answers is one the
    cache would only have read, so it evicts alike with the memo on or off."""
    max_entries, time_scale, least_share = TICKING[case]
    kwargs = dict(max_entries=max_entries, time_scale=time_scale)
    fast, fast_metrics, memo, (_, _, _, patched) = replay(memo=True, **kwargs)
    slow, slow_metrics, _, _ = replay(memo=False, **kwargs)
    assert fast == slow
    assert fast_metrics.metrics == slow_metrics.metrics
    assert memo.hits / (memo.hits + memo.misses) >= least_share
    # Bounded or not, the cache grants the hit lease, so images are
    # patchable; at a bound of 40 and time scale 1 every image's entry is
    # evicted before its TTL ticks, so none is patched there.
    assert any(entry.patchable for entry in memo.entries.values())
    assert patched > 0 or case == "bound40-scale1"


#: Four TTLs long: every hot name's cache entry expires and is refetched.
LAPSING = {
    "starved": dict(step=2e-3, capacity=1),
    "renumbered": dict(step=2e-3, renumber_at=600),
    "nxdomain": dict(step=2e-3, qnames="www.nosuch{}.nl."),
}


@pytest.mark.parametrize("case", sorted(LAPSING))
def test_memo_on_and_off_agree_when_images_lapse(case):
    """Re-resolved lapsed images are invisible too — with the memo starved
    to one image, with a zone edit changing an answer's shape mid-replay,
    and on a stream of NXDOMAIN answers — and the decoder runs only where
    no image can stand in: a slow pass that finds none (a first sight, or
    a form whose last slow pass was not admitted), or a changed shape."""
    fast, fast_metrics, _, (decodes, missing, reshaped, _) = replay(memo=True, **LAPSING[case])
    slow, slow_metrics, _, (full_decodes, _, _, _) = replay(memo=False, **LAPSING[case])
    assert fast == slow
    assert fast_metrics.metrics == slow_metrics.metrics
    assert decodes == missing + reshaped
    assert reshaped == (case == "renumbered")
    if case != "starved":
        assert decodes < full_decodes / 2  # most slow passes re-resolve


# -- the memo object itself ------------------------------------------------

def test_capacity_evicts_oldest_first():
    memo = ResponseMemo(capacity=2)
    names = [Name(f"n{index}.example.") for index in range(3)]
    for index, name in enumerate(names):
        memo.put(
            bytes([index]), b"wire%d" % index, 100.0, name, RdataType.A, "NOERROR"
        )
    assert len(memo) == 2
    assert memo.get(bytes([0]), 0.0) is None  # oldest went first
    assert memo.get(bytes([1]), 0.0) is not None
    assert memo.get(bytes([2]), 0.0) is not None


def test_memo_counters_and_validity_window():
    memo = ResponseMemo(capacity=8)
    name = Name("x.example.")
    memo.put(b"k", b"w", valid_until=10.0, qname=name, qtype=RdataType.A,
             rcode_name="NOERROR")
    assert memo.get(b"k", 10.0) is not None  # inclusive bound
    assert memo.get(b"k", math.nextafter(10.0, math.inf)) is None  # dropped
    assert memo.get(b"k", 0.0) is None  # really gone
    assert len(memo) == 1  # lapsed: held for a slow pass, never served
    assert (memo.hits, memo.misses) == (1, 2)


def test_moving_either_answer_owner_lapses_the_image():
    """A response built from two cache entries (a CNAME and its target)
    carries a stamp for each; moving either holder must drop it."""
    cache = Cache()
    qname = Name("alias.example.")
    target = Name("canonical.example.")
    cache.put(RRset(qname, RdataType.CNAME, 60, [CNAME(target)]), Credibility.AUTH_ANSWER, 0.0)
    cache.put(RRset(target, RdataType.A, 60, [A("192.0.2.1")]), Credibility.AUTH_ANSWER, 0.0)

    def memoize() -> ResponseMemo:
        stamps = tuple(
            (entry, entry.generation, entry.expires_at)
            for entry in (cache.peek(qname, RdataType.CNAME), cache.peek(target, RdataType.A))
        )
        memo = ResponseMemo()
        memo.put(b"k", b"w", 100.0, qname, RdataType.A, "NOERROR", stamps)
        assert memo.get(b"k", 10.0) is not None
        return memo

    memo = memoize()
    cache.put(RRset(target, RdataType.A, 60, [A("192.0.2.2")]), Credibility.AUTH_ANSWER, 10.0)
    assert memo.get(b"k", 10.0) is None  # the target's generation moved
    memo = memoize()
    cache.expire_now((qname, RdataType.CNAME, RdataClass.IN), 10.0)
    assert memo.get(b"k", 10.0) is None  # the alias's expiry moved
    assert len(memo) == 1  # lapsed: held for a slow pass, never served

