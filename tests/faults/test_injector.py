"""Tests for repro.faults.injector (hooks, metrics, recovery clock)."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdtypes import A, NS, RdataType
from repro.dns.zone import Zone
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.registry import MetricsRegistry
from repro.net.topology import Region, Topology
from repro.net.transport import Network, NetworkTimeout
from repro.server.anycast import AnycastCluster
from repro.server.authoritative import AuthoritativeServer


def injector(*specs, seed=0, plan_seed=0, registry=None):
    inj = FaultInjector(FaultPlan(faults=tuple(specs), seed=plan_seed), seed=seed)
    if registry is not None:
        inj.attach_metrics(registry)
    return inj


def metric(registry, name):
    return registry.snapshot().to_payload()["metrics"][name]


def query():
    return Message.make_query("www.shop.example.", RdataType.A)


class TestTransmissionFate:
    def test_outage_drops_only_its_target_in_window(self):
        inj = injector(FaultSpec(kind="server_outage", start=10.0,
                                 duration=10.0, target="a"))
        assert inj.transmission_fate("c", "a", 15.0) == (True, 0.0)
        assert inj.transmission_fate("c", "b", 15.0) == (False, 0.0)
        assert inj.transmission_fate("c", "a", 9.0) == (False, 0.0)
        assert inj.transmission_fate("c", "a", 20.0) == (False, 0.0)

    def test_blackhole_narrows_by_src(self):
        inj = injector(FaultSpec(kind="blackhole", start=0.0, duration=10.0,
                                 target="a", src="victim"))
        assert inj.transmission_fate("victim", "a", 5.0) == (True, 0.0)
        assert inj.transmission_fate("bystander", "a", 5.0) == (False, 0.0)

    def test_upstream_storm_matches_source(self):
        inj = injector(FaultSpec(kind="upstream_storm", start=0.0,
                                 duration=10.0, target="res"))
        assert inj.transmission_fate("res", "anywhere", 5.0) == (True, 0.0)
        assert inj.transmission_fate("other", "anywhere", 5.0) == (False, 0.0)

    def test_delay_adds_up_without_losing(self):
        inj = injector(
            FaultSpec(kind="delay", start=0.0, duration=10.0, delay_ms=100.0),
            FaultSpec(kind="delay", start=0.0, duration=10.0, delay_ms=50.0),
        )
        assert inj.transmission_fate("c", "a", 5.0) == (False, pytest.approx(0.15))

    def test_loss_rate_statistics_and_suppression(self):
        registry = MetricsRegistry()
        inj = injector(
            FaultSpec(kind="loss", start=0.0, duration=1e9, rate=0.3),
            registry=registry,
        )
        losses = sum(inj.transmission_fate("c", "a", 1.0)[0] for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35
        counts = metric(registry, "faults.injected")["values"]
        suppressed = metric(registry, "faults.suppressed")["values"]
        assert counts["loss"] == losses
        assert suppressed["loss"] == 5000 - losses

    def test_rng_stream_independent_of_other_windows(self):
        # An outage window over the same instants must not perturb the
        # loss draws: the stream is a pure function of (plan seed, seed).
        spec = FaultSpec(kind="loss", start=0.0, duration=1e9, rate=0.5)
        outage = FaultSpec(kind="server_outage", start=0.0, duration=1e9,
                           target="other")
        lone = injector(spec)
        paired = injector(spec, outage)
        fates = [(lone.transmission_fate("c", "a", t)[0],
                  paired.transmission_fate("c", "a", t)[0])
                 for t in range(200)]
        assert all(a == b for a, b in fates)


class TestServerIntercepts:
    def test_servfail_override(self):
        inj = injector(FaultSpec(kind="servfail", start=0.0, duration=10.0,
                                 target="a"))
        response = inj.intercept_server("a", query(), 5.0)
        assert response is not None and response.rcode == Rcode.SERVFAIL
        assert inj.intercept_server("b", query(), 5.0) is None
        assert inj.intercept_server("a", query(), 15.0) is None

    def test_truncate_sets_tc(self):
        inj = injector(FaultSpec(kind="truncate", start=0.0, duration=10.0))
        response = inj.intercept_server("a", query(), 5.0)
        assert response is not None and response.flags.tc

    def test_ratelimit_slips_over_budget(self):
        registry = MetricsRegistry()
        inj = injector(
            FaultSpec(kind="ratelimit", start=0.0, duration=10.0, rate=2.0),
            registry=registry,
        )
        # Three queries in the same one-second bucket: two pass, one slips.
        fates = [inj.intercept_server("a", query(), 1.2) for _ in range(3)]
        assert fates[0] is None and fates[1] is None
        assert fates[2] is not None and fates[2].flags.tc
        # A fresh bucket resets the accounting.
        assert inj.intercept_server("a", query(), 2.0) is None
        assert metric(registry, "faults.injected")["values"]["ratelimit"] == 1
        assert metric(registry, "faults.suppressed")["values"]["ratelimit"] == 3


class TestResolverRestart:
    def test_fires_once_per_address(self):
        inj = injector(FaultSpec(kind="resolver_restart", start=10.0,
                                 duration=0.0))
        assert not inj.take_restart("res1", 5.0)
        assert inj.take_restart("res1", 12.0)
        assert not inj.take_restart("res1", 13.0)
        assert inj.take_restart("res2", 12.0)  # independent per resolver

    def test_targeted_restart_skips_others(self):
        inj = injector(FaultSpec(kind="resolver_restart", start=0.0,
                                 duration=0.0, target="res1"))
        assert inj.take_restart("res1", 1.0)
        assert not inj.take_restart("res2", 1.0)


class TestAnycastSiteDown:
    @pytest.fixture
    def cluster_rig(self):
        topology = Topology(seed=0)
        network = Network(seed=0)
        zone = Zone("shop.example.", default_ttl=300)
        zone.add_soa("ns1.shop.example.")
        zone.add("shop.example.", RdataType.NS, NS("ns1.shop.example."))
        zone.add("www.shop.example.", RdataType.A, A("203.0.113.10"))
        sites = [
            topology.endpoint_in_region(Region.EU, "site-eu"),
            topology.endpoint_in_region(Region.NA, "site-na"),
        ]
        cluster = AnycastCluster(
            "198.51.100.1", sites, network.latency, [zone], log_queries=True
        )
        network.register(cluster, "198.51.100.1")
        client = topology.endpoint_in_region(Region.EU, "cli")
        return network, cluster, client, sites

    def test_down_site_fails_over_to_survivor(self, cluster_rig):
        network, cluster, client, sites = cluster_rig
        nominal = cluster.endpoint_for(client, network.latency)
        registry = MetricsRegistry()
        network.attach_metrics(registry)
        network.attach_faults(
            injector(FaultSpec(kind="anycast_site_down", start=0.0,
                               duration=100.0, site=nominal.name))
        )
        response, _ = network.exchange(client, "198.51.100.1", query(), 10.0)
        assert response.rcode == Rcode.NOERROR
        entry = list(cluster.query_log)[-1]
        assert entry.server != str(nominal)
        assert metric(registry, "faults.injected")["values"]["anycast_site_down"] > 0

    def test_all_sites_down_means_loss(self, cluster_rig):
        network, cluster, client, sites = cluster_rig
        network.attach_faults(
            injector(*[
                FaultSpec(kind="anycast_site_down", start=0.0, duration=100.0,
                          site=site.name)
                for site in sites
            ])
        )
        with pytest.raises(NetworkTimeout):
            network.exchange(client, "198.51.100.1", query(), 10.0, retries=0)

    def test_unicast_server_has_no_failover(self):
        topology = Topology(seed=0)
        network = Network(seed=0)
        zone = Zone("shop.example.", default_ttl=300)
        zone.add_soa("ns1.shop.example.")
        zone.add("www.shop.example.", RdataType.A, A("203.0.113.10"))
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU, "ns1.shop.example"), [zone]
        )
        network.register(server)
        network.attach_faults(
            injector(FaultSpec(kind="anycast_site_down", start=0.0,
                               duration=100.0, site="ns1.shop.example"))
        )
        client = topology.endpoint_in_region(Region.EU, "cli")
        with pytest.raises(NetworkTimeout):
            network.exchange(client, server.endpoint.address, query(), 10.0,
                             retries=0)


class TestRecovery:
    def test_recovery_counts_first_delivery_after_window(self):
        registry = MetricsRegistry()
        inj = injector(
            FaultSpec(kind="server_outage", start=0.0, duration=100.0,
                      target="a"),
            registry=registry,
        )
        assert inj.transmission_fate("c", "a", 50.0)[0]
        inj.note_delivery("c", "a", 90.0)   # still inside: not a recovery
        inj.note_delivery("c", "b", 150.0)  # wrong target: not a recovery
        assert metric(registry, "faults.recovered")["values"] == {}
        inj.note_delivery("c", "a", 150.0)
        inj.note_delivery("c", "a", 200.0)  # only the first one counts
        assert metric(registry, "faults.recovered")["values"]["server_outage"] == 1
        histogram = metric(registry, "faults.time_to_recovery_s")
        assert histogram["count"] == 1
        assert histogram["min"] == pytest.approx(50.0)

    def test_unimpacted_window_never_recovers(self):
        registry = MetricsRegistry()
        inj = injector(
            FaultSpec(kind="server_outage", start=0.0, duration=100.0,
                      target="a"),
            registry=registry,
        )
        # No transmission ever hit the window, so there is nothing to heal.
        inj.note_delivery("c", "a", 150.0)
        assert metric(registry, "faults.recovered")["values"] == {}


class TestEndToEndOutage:
    def test_window_ending_mid_retry_lets_exchange_succeed(self):
        """An outage of [0, 3) with timeout=2, retries=2: attempts at
        t=0 and t=2 die, the third at t=4 lands — the exchange succeeds
        and the fault records a recovery."""
        topology = Topology(seed=0)
        network = Network(seed=0)
        zone = Zone("shop.example.", default_ttl=300)
        zone.add_soa("ns1.shop.example.")
        zone.add("www.shop.example.", RdataType.A, A("203.0.113.10"))
        server = AuthoritativeServer(
            topology.endpoint_in_region(Region.EU, "ns1.shop.example"), [zone]
        )
        network.register(server)
        registry = MetricsRegistry()
        network.attach_metrics(registry)
        network.attach_faults(
            injector(FaultSpec(kind="server_outage", start=0.0, duration=3.0,
                               target=server.endpoint.address))
        )
        client = topology.endpoint_in_region(Region.EU, "cli")
        response, elapsed = network.exchange(
            client, server.endpoint.address, query(), 0.0, timeout=2.0, retries=2
        )
        assert response.rcode == Rcode.NOERROR
        assert elapsed > 4.0  # two burned timeouts plus the live RTT
        assert metric(registry, "faults.recovered")["values"]["server_outage"] == 1


class TestRecordChanges:
    def test_each_spec_fires_exactly_once(self):
        early = FaultSpec(kind="record_change", start=60.0, duration=0.0,
                          target="www.a.example.")
        late = FaultSpec(kind="record_change", start=120.0, duration=0.0,
                         target="www.b.example.")
        inj = injector(early, late)
        assert inj.take_record_changes(30.0) == ()
        assert inj.take_record_changes(60.0) == (early,)
        assert inj.take_record_changes(61.0) == ()  # already fired
        # A coarse probe tick that jumps past both starts drains the rest.
        assert inj.take_record_changes(500.0) == (late,)
        assert inj.take_record_changes(1000.0) == ()

    def test_simultaneous_changes_fire_in_plan_order(self):
        first = FaultSpec(kind="record_change", start=10.0, duration=0.0,
                          target="a.example.")
        second = FaultSpec(kind="record_change", start=10.0, duration=0.0,
                           target="b.example.")
        assert injector(first, second).take_record_changes(10.0) == (
            first, second)

    def test_fires_land_in_injected_metric(self):
        registry = MetricsRegistry()
        inj = injector(
            FaultSpec(kind="record_change", start=0.0, duration=0.0,
                      target="www.example."),
            registry=registry,
        )
        inj.take_record_changes(0.0)
        assert metric(registry, "faults.injected")["values"]["record_change"] == 1
