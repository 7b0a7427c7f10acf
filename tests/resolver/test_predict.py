"""Integration tests for repro.predict wired into the resolver.

Covers RFC 8767 stale-while-revalidate, popularity-gated refresh-ahead,
the expiry feed, restart hygiene, and the refresh-hit metric.
"""

from repro.dns.message import Rcode
from repro.dns.rdtypes import A, RdataType
from repro.metrics import MetricsRegistry
from repro.net.topology import Region
from repro.predict import MAX_REFRESH_PER_S, REFRESH_BURST
from repro.resolver.policy import MAX_STALE_S, ResolverPolicy
from repro.resolver.recursive import RecursiveResolver

WWW = "www.example.tld."


def make_resolver(world, policy, registry=None, name=None):
    if registry is not None:
        world.network.attach_metrics(registry)
    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU, name),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
    )


class TestStaleWhileRevalidate:
    def test_expired_entry_answers_immediately(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        # TTL 60: by t=100 the entry is expired.  Upstream is down, but
        # RFC 8767 never even tries it on this query.
        mini_world.network.down.add(mini_world.child_server.endpoint.address)
        out = resolver.resolve(WWW, RdataType.A, now=100.0)
        assert out.rcode == Rcode.NOERROR
        assert out.served_stale
        assert out.elapsed == 0.0  # no failed walk charged to the client
        assert not out.cache_hit

    def test_stale_answer_ttl_is_capped(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        out = resolver.resolve(WWW, RdataType.A, now=100.0)
        assert out.served_stale
        assert out.answers[0].ttl == 30  # RFC 8767 §5's ceiling

    def test_revalidation_repopulates_cache(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        out = resolver.resolve(WWW, RdataType.A, now=100.0)
        assert out.served_stale  # revalidation queued, not yet run
        out = resolver.resolve(WWW, RdataType.A, now=101.0)  # pump runs it
        assert out.cache_hit
        assert not out.served_stale
        assert out.answers[0].ttl == 59  # refreshed at t=100, aged 1 s

    def test_stale_beyond_max_stale_is_not_served(self, mini_world):
        assert MAX_STALE_S == 86400.0  # RFC 8767 §5: one day
        # Both copies expired at 60: one is served at the bound, the other
        # one second past it is resolved fresh upstream instead.
        for stale_for, served in ((MAX_STALE_S, True), (MAX_STALE_S + 1.0, False)):
            resolver = make_resolver(
                mini_world, ResolverPolicy.predictive(), name=f"res{stale_for:g}"
            )
            resolver.resolve(WWW, RdataType.A, now=0.0)
            out = resolver.resolve(WWW, RdataType.A, now=60.0 + stale_for)
            assert out.served_stale is served
            assert out.cache_hit is False
            assert out.rcode == Rcode.NOERROR

    def test_no_stale_data_still_resolves(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        out = resolver.resolve(WWW, RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
        assert not out.served_stale


class TestRefreshAhead:
    def test_hot_name_is_refreshed_before_expiry(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        resolver.resolve(WWW, RdataType.A, now=1.0)  # second arrival: hot
        sent_before = resolver.queries_sent
        # Inside the refresh window (lead = 10% of 60 s) the pump at the
        # start of this call runs the refresh — off the client path.
        out = resolver.resolve(WWW, RdataType.A, now=55.0)
        assert out.cache_hit
        assert out.elapsed == 0.0
        assert resolver.queries_sent > sent_before  # the refresh ran
        out = resolver.resolve(WWW, RdataType.A, now=90.0)  # past old expiry
        assert out.cache_hit

    def test_cold_name_is_not_refreshed(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)  # one arrival: cold
        sent_before = resolver.queries_sent
        # The feed sees the entry expiring at t=60, but one arrival is
        # below min_hits: nothing is scheduled or sent.
        assert resolver.pump(59.0) == 0
        assert resolver.queries_sent == sent_before

    def test_expiry_feed_refreshes_without_a_triggering_hit(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        resolver.resolve(WWW, RdataType.A, now=1.0)  # hot
        # No client hit near expiry — the expiry feed alone must arm the
        # refresh (entry expires at 60, due at 54, horizon 60 s).
        assert resolver.pump(55.0) == 1
        out = resolver.resolve(WWW, RdataType.A, now=90.0)
        assert out.cache_hit

    def test_refresh_hits_counted(self, mini_world):
        registry = MetricsRegistry()
        resolver = make_resolver(
            mini_world, ResolverPolicy.predictive(), registry=registry
        )
        resolver.resolve(WWW, RdataType.A, now=0.0)
        resolver.resolve(WWW, RdataType.A, now=1.0)
        resolver.pump(55.0)  # expiry feed + refresh
        resolver.resolve(WWW, RdataType.A, now=90.0)  # hit on refreshed gen
        snapshot = registry.snapshot()
        assert snapshot.value("predict.refreshes") == 1
        assert snapshot.value("predict.refresh_hits") == 1

    def test_stale_answered_counted(self, mini_world):
        registry = MetricsRegistry()
        resolver = make_resolver(
            mini_world, ResolverPolicy.predictive(), registry=registry
        )
        resolver.resolve(WWW, RdataType.A, now=0.0)
        resolver.resolve(WWW, RdataType.A, now=100.0)
        resolver.resolve(WWW, RdataType.A, now=101.0)  # pump: revalidation
        snapshot = registry.snapshot()
        assert snapshot.value("predict.stale_answered") == 1
        assert snapshot.value("predict.revalidations") == 1


class TestStormSafety:
    def test_refresh_budget_bounds_upstream_volume(self, mini_world):
        names = [f"h{index}.example.tld." for index in range(3 * REFRESH_BURST)]
        for index, name in enumerate(names):
            mini_world.child_zone.add(name, RdataType.A, A(f"203.0.113.{index}"), ttl=60)
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        for now in (0.0, 1.0):
            for name in names:
                resolver.resolve(name, RdataType.A, now=now)
        # Every record is hot and all fall due within one second — the
        # bucket lets its burst of 20 through, plus at most the 10 tokens
        # that second refills, and drops the rest.
        assert (REFRESH_BURST, MAX_REFRESH_PER_S) == (20, 10.0)
        assert REFRESH_BURST <= resolver.pump(59.0) <= REFRESH_BURST + MAX_REFRESH_PER_S

    def test_failed_refresh_backs_off(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        resolver.resolve(WWW, RdataType.A, now=1.0)
        mini_world.network.down.add(mini_world.child_server.endpoint.address)
        assert resolver.pump(55.0) == 1  # refresh attempt fails
        sent_after_failure = resolver.queries_sent
        # The feed re-arms the key, but the 30 s backoff holds it until t=84.
        assert resolver.pump(60.0) == 0
        assert resolver.queries_sent == sent_after_failure


class TestHygiene:
    def test_restart_clears_predict_state(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.predictive())
        resolver.resolve(WWW, RdataType.A, now=0.0)
        resolver.resolve(WWW, RdataType.A, now=55.0)
        resolver.restart()
        assert resolver.pump(56.0) == 0  # no jobs survive the restart
        out = resolver.resolve(WWW, RdataType.A, now=100.0)
        assert not out.served_stale  # no stale data survives either
        assert not out.cache_hit

    def test_describe_mentions_predict(self):
        policy = ResolverPolicy.predictive()
        assert "predict" in policy.describe()

    def test_plain_policies_unaffected(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.child_centric())
        assert resolver.pump(0.0) == 0
        out = resolver.resolve(WWW, RdataType.A, now=0.0)
        assert out.rcode == Rcode.NOERROR
