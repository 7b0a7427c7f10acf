"""Tests for the prefetch extension (Pappas et al. renewal, paper §7).

Prefetch is routed through the repro.predict refresh scheduler: a hit
inside the prefetch window *schedules* a refresh due immediately, and
the refresh executes on the next pump — the start of the next
``resolve()`` call, or an explicit ``pump()``.  The triggering client is
never charged for the refresh.
"""

from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver


def make_resolver(world, policy):
    return RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU),
        network=world.network,
        root_hints=world.hints,
        policy=policy,
    )


class TestPrefetch:
    def test_hit_near_expiry_triggers_refresh(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.prefetching())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        sent_before = resolver.queries_sent
        # TTL 60: a hit at t=55 is inside the last 10% of lifetime.
        out = resolver.resolve("www.example.tld.", RdataType.A, now=55.0)
        assert out.cache_hit  # the client still gets the cached answer
        assert resolver.queries_sent == sent_before  # nothing ran inline
        assert resolver.pump(55.0) == 1
        assert resolver.queries_sent > sent_before  # refresh happened

    def test_refresh_extends_lifetime(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.prefetching())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        resolver.resolve("www.example.tld.", RdataType.A, now=55.0)  # schedules
        # The next call pumps first (refresh runs back-dated to t=55),
        # so past the original expiry the answer is a refreshed hit.
        out = resolver.resolve("www.example.tld.", RdataType.A, now=90.0)
        assert out.cache_hit

    def test_hit_far_from_expiry_does_not_refresh(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.prefetching())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        sent_before = resolver.queries_sent
        out = resolver.resolve("www.example.tld.", RdataType.A, now=10.0)
        assert out.cache_hit
        assert resolver.pump(10.0) == 0  # nothing was scheduled
        assert resolver.queries_sent == sent_before

    def test_prefetch_is_free_for_the_client(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.prefetching())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        out = resolver.resolve("www.example.tld.", RdataType.A, now=55.0)
        assert out.elapsed == 0.0
        # ...and stays free on the call that actually runs the refresh.
        out = resolver.resolve("www.example.tld.", RdataType.A, now=56.0)
        assert out.elapsed == 0.0
        assert out.cache_hit

    def test_disabled_by_default(self, mini_world):
        resolver = make_resolver(mini_world, ResolverPolicy.child_centric())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        sent_before = resolver.queries_sent
        resolver.resolve("www.example.tld.", RdataType.A, now=55.0)
        assert resolver.pump(55.0) == 0
        assert resolver.queries_sent == sent_before

    def test_prefetch_survives_server_outage(self, mini_world):
        """A failed refresh must not break the client-facing hit."""
        resolver = make_resolver(mini_world, ResolverPolicy.prefetching())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        mini_world.network.down.add(
            mini_world.child_server.endpoint.address
        )
        out = resolver.resolve("www.example.tld.", RdataType.A, now=55.0)
        assert out.cache_hit
        resolver.pump(55.0)  # the refresh fails; must not raise
        out = resolver.resolve("www.example.tld.", RdataType.A, now=58.0)
        assert out.cache_hit  # original entry still live and served

    def test_refresh_deduplicated_across_hits(self, mini_world):
        """Many hits in the window schedule exactly one refresh."""
        resolver = make_resolver(mini_world, ResolverPolicy.prefetching())
        resolver.resolve("www.example.tld.", RdataType.A, now=0.0)
        sent_before = resolver.queries_sent
        for at in (55.0, 55.5, 56.0, 56.5):
            resolver.resolve("www.example.tld.", RdataType.A, now=at)
        # The t=55.5 call pumped the job scheduled at t=55; later hits
        # re-arm at most one further job for the refreshed entry.
        assert resolver.queries_sent - sent_before <= 2
