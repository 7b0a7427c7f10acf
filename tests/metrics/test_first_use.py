"""TCP-session and push metrics appear on first use, and only then.

A snapshot of a world that never pushed carries no ``push.*``,
``net.tcp.*`` or ``cache.push_*`` name, so push-free campaigns export
the bytes they did before push existed.  A name appears with its first
count, even a count of 0: a first NOTIFY that pushes a removal lands
``cache.push_updates`` at 0 beside ``cache.push_invalidations`` at 1.
"""

from repro.core.worlds import build_push_world
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.metrics import MetricsRegistry
from repro.net.topology import Region
from repro.push import PushClient, attach_publisher
from repro.resolver.cache import Cache, Credibility
from repro.resolver.recursive import RecursiveResolver

WWW = Name("www.pushed.example.")
FIRST_USE = ("push.", "net.tcp.", "cache.push_")


def first_use_names(registry: MetricsRegistry) -> dict:
    metrics = registry.snapshot().metrics
    return {
        name: metric.get("value", metric.get("count"))
        for name, metric in metrics.items()
        if name.startswith(FIRST_USE)
    }


def test_a_push_free_run_snapshots_no_first_use_name():
    testbed = build_push_world(ttl=60)
    publisher = attach_publisher(testbed.server, testbed.world.network)
    registry = MetricsRegistry()
    testbed.world.network.attach_metrics(registry)
    resolver = RecursiveResolver(
        endpoint=testbed.world.topology.endpoint_in_region(Region.EU, "res"),
        network=testbed.world.network,
        root_hints=testbed.world.hints,
    )
    for now in (0.0, 30.0, 600.0):
        resolver.resolve(WWW, RdataType.A, now)
    testbed.apply_change(0)
    assert publisher.publish(WWW, RdataType.A, 700.0) == 0
    resolver.resolve(WWW, RdataType.A, 800.0)
    assert registry.snapshot().value("net.exchanges") > 0
    assert first_use_names(registry) == {}


def test_an_invalidation_declares_push_updates_at_zero():
    testbed = build_push_world(ttl=300)
    network = testbed.world.network
    registry = MetricsRegistry()
    network.attach_metrics(registry)
    publisher = attach_publisher(testbed.server, network)
    cache = Cache()
    client = PushClient(
        testbed.world.topology.endpoint_in_region(Region.EU, "sub"), network, cache
    )
    # The record was resolved, then removed before the subscription, so
    # the SUBSCRIBE answer carries no RRset and lands nothing.
    resolved = testbed.zone.get(WWW, RdataType.A)
    testbed.zone.remove(WWW, RdataType.A)
    client.note_answer(WWW, RdataType.A, testbed.target_address, 0.0)
    cache.put(resolved, Credibility.AUTH_ANSWER, 0.0)
    subscribed = first_use_names(registry)
    assert "cache.push_updates" not in subscribed
    assert subscribed["push.subscribes"] == 1
    assert subscribed["net.tcp.opens"] == 1

    publisher.publish(WWW, RdataType.A, 100.0)  # the removal
    assert client.pump(110.0) == 1
    assert cache.get(WWW, RdataType.A, 110.0) is None
    applied = first_use_names(registry)
    assert applied["cache.push_updates"] == 0
    assert applied["cache.push_invalidations"] == 1
    assert applied["push.applied"] == 1
    assert applied["push.staleness_s"] == 1  # one observed window
    assert applied["push.sessions"] == 1 and applied["push.subscribers"] == 1
