"""Counting costs no calls: metered ≡ unmetered by construction.

Every count is a plain slot on its owner, written with ``+=``; a
registry only *reads* the slots when it snapshots.  These tests profile
calls by code object (``sys.setprofile``; builtins by qualified name), so
they are exact and independent of host speed:

- a warm cache-hit ``resolve`` makes no call into ``repro.metrics``;
- a miss-path resolution calls only :meth:`Histogram.observe` there;
- an observation that leaves the batch unfilled is one ``observe`` frame
  and no C call; the one that fills it adds one fold, whose calls do not
  grow with the bucket count;
- a fabric exchange never formats an :class:`Endpoint` for its label;
- a resolver whose network has a registry attached makes exactly the
  calls of one without;
- a TCP session and a push NOTIFY drain count into the fabric's tally,
  calling nothing in ``repro.metrics`` but :meth:`Histogram.observe`;
- the registry has one input, :meth:`MetricsRegistry.collect`: no
  factory builds a standalone instrument.
"""

import gc
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import repro.metrics
from repro.core.worlds import build_push_world
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.metrics import Histogram, MetricsRegistry, log_buckets
from repro.metrics.registry import BATCH
from repro.net.topology import Endpoint, Region
from repro.push import PushClient, attach_publisher
from repro.resolver.cache import Cache
from repro.resolver.recursive import RecursiveResolver
from tests.conftest import build_mini_world

METRICS_DIR = str(Path(repro.metrics.__file__).parent)
QNAME = "www.example.tld."


def calls(action) -> Counter:
    """Every call ``action()`` makes: code objects, and builtins by name."""
    seen: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            seen[frame.f_code] += 1
        elif event == "c_call":
            seen[getattr(arg, "__qualname__", repr(arg))] += 1

    gc.collect()
    gc.disable()  # a collection would profile other libraries' gc callbacks
    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(None)
        gc.enable()
    return seen


def into_metrics(seen: Counter) -> set:
    return {
        code for code in seen
        if not isinstance(code, str) and code.co_filename.startswith(METRICS_DIR)
    }


def resolver(metered: bool = True) -> RecursiveResolver:
    world = build_mini_world()
    if metered:
        world.network.attach_metrics(MetricsRegistry())
    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
    )


def test_a_warm_hit_calls_nothing_in_metrics():
    warm = resolver()
    warm.resolve(QNAME, RdataType.A, 0.0)
    answered = []
    seen = calls(lambda: answered.append(warm.resolve(QNAME, RdataType.A, 1.0)))
    assert answered[0].cache_hit
    assert into_metrics(seen) == set()


def test_a_miss_calls_only_histogram_observe():
    cold = resolver()
    seen = calls(lambda: cold.resolve(QNAME, RdataType.A, 0.0))
    assert cold.queries_sent >= 3
    assert into_metrics(seen) == {Histogram.observe.__code__}


@pytest.mark.parametrize("bounds", [(1.0,), log_buckets(0.1, 10_000.0)])
def test_an_observation_is_one_frame_until_its_batch_fills(bounds):
    histogram = Histogram("h", bounds)
    for value in range(BATCH - 1):
        seen = calls(partial(histogram.observe, value))
        del seen["setprofile"]
        assert seen == Counter({Histogram.observe.__code__: 1})
    seen = calls(partial(histogram.observe, 1e9))
    del seen["setprofile"]
    assert seen == Counter({
        Histogram.observe.__code__: 1, Histogram._fold.__code__: 1, "sum": 1, "min": 1, "max": 1,
    })


def test_an_exchange_never_formats_an_endpoint():
    world = build_mini_world()
    world.network.attach_metrics(MetricsRegistry())
    client = world.topology.endpoint_in_region(Region.EU)
    query = Message.make_query(QNAME, RdataType.A, recursion_desired=False)
    address = world.hints[next(iter(world.hints))]
    seen = calls(lambda: [world.network.exchange(client, address, query, 0.0) for _ in range(3)])
    assert Endpoint.__str__.__code__ not in seen
    assert world.network.tally.exchanges == 3


def test_a_registry_adds_no_call_to_resolution():
    def resolution_calls(metered: bool) -> Counter:
        subject = resolver(metered)
        return calls(
            lambda: [subject.resolve(QNAME, RdataType.A, now) for now in (0.0, 1.0, 7200.0)]
        )

    assert resolution_calls(metered=True) == resolution_calls(metered=False)


def test_a_tcp_session_counts_into_the_tally_alone():
    world = build_mini_world()
    world.network.attach_metrics(MetricsRegistry())
    client = world.topology.endpoint_in_region(Region.EU)
    session = world.network.open_session(client, world.hints[next(iter(world.hints))])
    query = Message.make_query(QNAME, RdataType.A, recursion_desired=False)
    seen = calls(
        lambda: [session.connect(0.0), session.exchange(query, 1.0), session.keepalive(2.0)]
    )
    assert into_metrics(seen) <= {Histogram.observe.__code__}
    assert dict(world.network.tally.counts) == {
        "net.tcp.opens": 1, "net.tcp.exchanges": 1, "net.tcp.keepalives": 1,
    }


def test_a_notify_drain_calls_only_histogram_observe():
    testbed = build_push_world(ttl=300)
    network = testbed.world.network
    network.attach_metrics(MetricsRegistry())
    publisher = attach_publisher(testbed.server, network)
    client = PushClient(
        testbed.world.topology.endpoint_in_region(Region.EU, "sub"), network, Cache()
    )
    www = Name("www.pushed.example.")
    client.note_answer(www, RdataType.A, testbed.target_address, 0.0)
    for change, now in ((0, 100.0), (1, 200.0)):  # the first drain builds the histogram
        testbed.apply_change(change)
        publisher.publish(www, RdataType.A, now)
        applied = []
        seen = calls(lambda: applied.append(client.pump(now + 10.0)))
        assert applied == [1]
    assert into_metrics(seen) == {Histogram.observe.__code__}
    assert network.tally.counts["push.applied"] == 2
    assert network.tally.push_staleness_s.payload()["count"] == 2


def test_collect_is_the_registrys_only_input():
    for factory in ("counter", "labeled_counter", "gauge", "histogram"):
        assert not hasattr(MetricsRegistry, factory)
    assert not hasattr(repro.metrics, "Counter")
