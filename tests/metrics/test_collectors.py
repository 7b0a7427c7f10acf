"""Collector laws: owners' slots, read at snapshot time, are one ledger.

A registry folds every collector of a name the way the runner folds
shard snapshots, so N owners each counting their share must snapshot
exactly like one owner fed every event — for each kind, including a
gauge nobody recorded (``None``), histograms that merge, and counts
keyed by metric name that appear with their first count.
And because a re-attached fabric gets a fresh tally, a registry never
sees traffic from after its world was reset and reused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.rdtypes import RdataType
from repro.metrics.registry import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    LABELED_COUNTER,
    Histogram,
    MetricError,
    MetricsRegistry,
    log_buckets,
)
from repro.net.topology import Region
from repro.resolver.recursive import RecursiveResolver
from tests.conftest import build_mini_world

BOUNDS = log_buckets(1.0, 1000.0, per_decade=2)


class Owner:
    """An object keeping its own tallies, as caches and resolvers do."""

    SLOTS = (
        ("c", COUNTER, "count"),
        ("l", LABELED_COUNTER, "by_label"),
        ("g", GAUGE, "peak"),
        ("h", HISTOGRAM, "latency"),
        (None, COUNTER, "named"),
    )

    def __init__(self) -> None:
        self.count = 0
        self.by_label: dict[str, int] = {}
        self.peak = None
        self.latency = Histogram("h", BOUNDS)
        self.named: dict[str, int] = {}

    def feed(self, kind: str, label: str, value) -> None:
        if kind == "counter":
            self.count += value
        elif kind == "labeled":
            self.by_label[label] = self.by_label.get(label, 0) + value
        elif kind == "named":
            self.named[label] = self.named.get(label, 0) + value
        elif kind == "gauge":
            if self.peak is None or value > self.peak:
                self.peak = value
        else:
            self.latency.observe(value)


events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.one_of(
            st.tuples(st.just("counter"), st.just(""), st.integers(0, 10**6)),
            st.tuples(st.just("labeled"), st.sampled_from("abc"), st.integers(0, 10**6)),
            st.tuples(st.just("named"), st.sampled_from(["n.x", "n.y"]), st.integers(0, 10**6)),
            st.tuples(st.just("gauge"), st.just(""), st.integers(-(10**6), 10**6)),
            st.tuples(
                st.just("histogram"), st.just(""),
                st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
            ),
        ),
    ),
    max_size=60,
)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4), events)
def test_collected_slots_snapshot_like_one_instrument(owners, stream):
    collected, reference = MetricsRegistry(), MetricsRegistry()
    tallies = [Owner() for _ in range(owners)]
    for owner in tallies:
        collected.collect(owner, Owner.SLOTS)
    everything = Owner()
    reference.collect(everything, Owner.SLOTS)
    for index, event in stream:
        tallies[index % owners].feed(*event)
        everything.feed(*event)
    assert collected.snapshot() == reference.snapshot()
    assert collected.snapshot().to_json() == reference.snapshot().to_json()


def test_collectors_obey_the_declaration_rules():
    registry = MetricsRegistry()
    owner = Owner()
    registry.collect(owner, Owner.SLOTS)
    with pytest.raises(MetricError):
        registry.collect(owner, [("c", GAUGE, "peak")])
    with pytest.raises(MetricError):
        registry.collect(owner, [("c", COUNTER, "count")], domain="host")
    other = Owner()
    other.latency = Histogram("h", (1.0, 2.0))
    with pytest.raises(MetricError):
        registry.collect(other, [("h", HISTOGRAM, "latency")])
    registry.collect(other, [("c", COUNTER, "count")])
    other.count, owner.count = 2, 3
    assert registry.snapshot().value("c") == 5


def _resolver(world) -> RecursiveResolver:
    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
    )


def test_a_registry_keeps_its_own_counts_after_the_world_is_reused():
    world = build_mini_world()
    first = MetricsRegistry()
    world.network.attach_metrics(first)
    _resolver(world).resolve("www.example.tld.", RdataType.A, 0.0)
    before = first.snapshot()
    assert before.value("net.exchanges") > 0

    world.network.reset_runtime(seed=0)
    second = MetricsRegistry()
    world.network.attach_metrics(second)
    for now in (0.0, 7200.0):
        _resolver(world).resolve("www.example.tld.", RdataType.A, now)

    assert first.snapshot() == before
    assert second.snapshot().value("net.exchanges") == 2 * before.value("net.exchanges")


def test_a_gated_collector_starts_with_its_owners_first_use():
    registry, owner = MetricsRegistry(), Owner()
    registry.collect(owner, [("g", GAUGE, "peak"), ("c", COUNTER, "count")], after="peak")
    assert len(registry.snapshot()) == 0
    owner.count, owner.peak = 2, 5
    assert registry.snapshot().value("c") == 2
    assert registry.snapshot().value("g") == 5
