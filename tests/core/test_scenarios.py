"""Integration tests: each scenario reproduces its paper result's shape.

These run the actual simulations at reduced scale, asserting the
calibration targets from DESIGN.md §5.  They are the slowest tests in the
suite (a few seconds each).
"""

import inspect

import pytest

from repro.core import scenarios

POSITIONAL_OR_KEYWORD = inspect.Parameter.POSITIONAL_OR_KEYWORD
KEYWORD = inspect.Parameter.KEYWORD_ONLY


class TestTable1:
    def test_three_different_ttls(self):
        rows = scenarios.scenario_table1_cl()
        ttls = {row.ttl for row in rows}
        assert {172800, 3600, 43200} <= ttls

    def test_authoritative_flags(self):
        rows = scenarios.scenario_table1_cl()
        root_rows = [r for r in rows if r.server == "a.root-servers.net"]
        child_rows = [r for r in rows if r.server == "a.nic.cl"]
        assert not any(r.authoritative for r in root_rows)
        assert all(r.authoritative for r in child_rows)


_CENTRICITY_COMMON = {
    "seed": 0, "probes": 300, "parallelism": None, "shards": None, "run_dir": None,
    "progress": None, "faults": None, "predict": False, "profile": None,
    "snapshot_every": 0,
}


@pytest.mark.parametrize("name, own", [
    ("scenario_uy_ns", {"child_ns_ttl": 300, "duration": 7200.0, "interval": 600.0}),
    ("scenario_anicuy_a", {"duration": 10800.0}),
    ("scenario_googleco_ns", {"duration": 3600.0}),
])
def test_centricity_entry_points_keep_their_keywords_and_defaults(name, own):
    """Every keyword each Table 2 entry point has always accepted, with
    its default, so existing calls keep their meaning; ``seed`` and
    ``probes`` also stay positional (``scenario_uy_ns(seed, ...)``)."""
    entry = getattr(scenarios, name)
    assert "Table 2" in inspect.getdoc(entry)
    parameters = inspect.signature(entry).parameters
    for keyword, default in {**_CENTRICITY_COMMON, **own}.items():
        assert keyword in parameters, keyword
        assert parameters[keyword].default == default, keyword
        assert parameters[keyword].kind in (KEYWORD, POSITIONAL_OR_KEYWORD)
    assert list(parameters)[:2] == ["seed", "probes"]
    assert {parameters[p].kind for p in ("seed", "probes")} == {POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("name", ["scenario_anicuy_a", "scenario_googleco_ns"])
@pytest.mark.parametrize("keyword", [{"child_ns_ttl": 60}, {"interval": 300.0}])
def test_only_the_uy_ns_campaign_takes_child_ns_ttl_or_interval(name, keyword):
    """The bindings share ``_run_centricity``'s keywords, but the rows
    without a ``child_ns_ttl`` reject what they never accepted instead of
    running a mislabelled campaign."""
    with pytest.raises(TypeError, match="takes no child_ns_ttl or interval"):
        getattr(scenarios, name)(probes=1, duration=600.0, **keyword)


@pytest.fixture(scope="module")
def uy_run():
    return scenarios.scenario_uy_ns(seed=1, probes=250, duration=3600)


class TestUyCentricity:
    def test_mostly_child_centric(self, uy_run):
        # §3.2: ~90 % of answers at/below the child TTL.
        assert uy_run.breakdown.child_fraction > 0.8

    def test_parent_centric_minority(self, uy_run):
        # §3.2: roughly 10 % parent-centric; must be present but minority.
        assert 0.01 < uy_run.breakdown.parent_fraction < 0.25

    def test_some_full_parent_ttl(self, uy_run):
        # §3.2: ~2.9 % show the full 172800 s.
        breakdown = uy_run.breakdown
        assert breakdown.fraction(breakdown.full_parent_ttl) < 0.1

    def test_summary_bookkeeping(self, uy_run):
        summary = uy_run.summary
        assert summary["vps"] > summary["probes"]
        assert summary["responses_valid"] > 0

    def test_shared_caches_spread_ttls_below_child_value(self, uy_run):
        """VPs behind shared resolvers see *remaining* TTLs: the Figure 1
        curve has real mass strictly below 300 s, not a point mass at it
        (§3.2's query intervals exceed the TTL, so the spread comes from
        cache sharing across VPs, not repeat hits)."""
        child_ttls = [t for t in uy_run.results.ttls() if t <= 300]
        strictly_below = sum(1 for t in child_ttls if t < 300)
        assert strictly_below / len(child_ttls) > 0.2

    def test_a_campaign_keeps_no_query_log(self, monkeypatch):
        """Nothing in a t2-uy run reads an authoritative query log, so no
        server keeps one; every query is still counted."""
        from repro.runner import worldcache
        from repro.server.authoritative import AuthoritativeServer

        servers = []
        init = AuthoritativeServer.__init__

        def recording_init(self, *args, **kwargs):
            servers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AuthoritativeServer, "__init__", recording_init)
        worldcache.clear()  # the campaign builds its world under the recorder
        try:
            run = scenarios.scenario_uy_ns(seed=1, probes=8, duration=1200)
        finally:
            worldcache.clear()
        assert run.summary["responses_valid"] > 0
        assert servers and [s for s in servers if s.query_log is not None] == []
        assert sum(server.queries_received for server in servers) > 0

    def test_uy_new_ttl_campaign(self):
        """The .uy-NS-new column of Table 2: after the raise, answers
        follow the new one-day child TTL."""
        run = scenarios.scenario_uy_ns(
            seed=3, probes=150, child_ns_ttl=86400, duration=3600
        )
        assert run.breakdown.child_fraction > 0.75
        assert max(run.results.ttls()) <= 172800
        in_new_range = sum(1 for t in run.results.ttls() if t <= 86400)
        assert in_new_range / len(run.results.ttls()) > 0.75


class TestGoogleCo:
    def test_fig2_shape(self):
        run = scenarios.scenario_googleco_ns(seed=1, probes=250)
        # §3.3: ~70 % above the parent TTL (child), ~15 % capped at 21599.
        assert run.breakdown.child_fraction > 0.5
        assert 0.02 < run.breakdown.capped_fraction < 0.35
        assert run.breakdown.parent_fraction < 0.35


class TestAnicuyA:
    def test_child_centric_address(self):
        run = scenarios.scenario_anicuy_a(seed=1, probes=200, duration=3600)
        assert run.breakdown.child_fraction > 0.8
        cdf = run.ttl_cdf()
        assert cdf.fraction_below(120) > 0.8


class TestBailiwick:
    @pytest.fixture(scope="class")
    def in_run(self):
        return scenarios.scenario_bailiwick(seed=1, in_bailiwick=True, probes=150)

    @pytest.fixture(scope="class")
    def out_run(self):
        return scenarios.scenario_bailiwick(seed=1, in_bailiwick=False, probes=150)

    def test_no_switch_before_renumber(self, in_run):
        assert in_run.switched_by_round[0] == 0.0

    def test_in_bailiwick_majority_switches_at_ns_expiry(self, in_run):
        # Figure 6: ~90 % on the new server just after 60 minutes.
        assert in_run.switched_by_round[7] > 0.8
        # …but most still on the old server before that.
        assert in_run.switched_by_round[5] < 0.3

    def test_out_of_bailiwick_switches_at_address_expiry(self, out_run):
        # Figure 7: nothing moves before 120 minutes, most after.
        assert out_run.switched_by_round[11] < 0.2
        assert out_run.switched_by_round[13] > 0.6

    def test_out_has_more_sticky_than_in(self, in_run, out_run):
        # Table 4: 196 vs 1642 VPs — out-of-bailiwick has far more.
        assert len(out_run.sticky_vp_ids) > len(in_run.sticky_vp_ids)

    def test_sticky_minority(self, out_run):
        share = len(out_run.sticky_vp_ids) / len(out_run.results.vp_ids())
        assert 0.02 < share < 0.35


class TestMatchedSticky:
    def test_fig8_sticky_vps_behave_normally_in_bailiwick(self):
        _, _, ratios = scenarios.scenario_matched_sticky(seed=2, probes=120)
        assert ratios
        # Figure 8: the same VPs mostly retrieve from the new server.
        assert sum(1 for r in ratios if r > 0.5) / len(ratios) > 0.5


class TestZurrundeduOffline:
    def test_only_parent_centric_answer(self):
        results, population = scenarios.scenario_zurrundedu_offline(seed=1, probes=150)
        ok = results.valid()
        assert len(ok) > 0
        labels = {
            population.resolver_label.get(r.resolver_address, "?").removeprefix("fwd+")
            for r in ok
        }
        assert labels <= {"opendns-like", "parent", "local-root"}


class TestNlPassive:
    @pytest.fixture(scope="class")
    def run(self):
        return scenarios.scenario_nl_passive(seed=1, resolvers=250, domain_count=150)

    def test_split_near_paper(self, run):
        # §3.4: 52 % multi-query vs 48 % single-query.
        assert 0.35 < run.breakdown.multi_fraction < 0.75

    def test_some_singles_are_child_elsewhere(self, run):
        # §3.4: ~14 % of single-query resolvers multi-query other names.
        assert run.breakdown.single_but_child_elsewhere > 0

    def test_hourly_bumps(self, run):
        from repro.analysis.interarrival import hourly_bumps

        bumps = hourly_bumps(run.min_interarrivals)
        assert bumps.get(1, 0) >= 1  # re-fetch at the 1-hour child TTL

    def test_only_monitored_servers_counted(self, run):
        world = run.world
        for name in world.monitored:
            assert len(world.world.servers[name].query_log) > 0


class TestUyNatural:
    def test_fig10_latency_drop(self):
        run = scenarios.scenario_uy_natural(seed=1, probes=200, duration=3600)
        from repro.analysis.cdf import ECDF

        before = ECDF(run.before.rtts_ms())
        after = ECDF(run.after.rtts_ms())
        # §5.3: large median and tail reductions.
        assert after.median < before.median / 2
        assert after.quantile(0.75) < before.quantile(0.75)

    def test_fig10b_every_region_improves(self):
        run = scenarios.scenario_uy_natural(seed=1, probes=250, duration=3600)
        from repro.analysis.latencystats import regional_summaries

        before = regional_summaries(run.rtts_by_region("before"))
        after = regional_summaries(run.rtts_by_region("after"))
        improved = 0
        compared = 0
        for region in before:
            if region in after and before[region].n >= 20 and after[region].n >= 20:
                compared += 1
                improved += after[region].median < before[region].median
        assert compared > 0
        assert improved == compared


class TestControlled:
    @pytest.fixture(scope="class")
    def runs(self):
        return scenarios.scenario_controlled_ttl(seed=1, probes=150)

    def test_long_ttl_cuts_authoritative_load(self, runs):
        # §6.2: ~77 % query reduction with the long TTL.
        reduction_unique = 1 - runs["TTL86400-u"].auth_queries / runs["TTL60-u"].auth_queries
        reduction_shared = 1 - runs["TTL86400-s"].auth_queries / runs["TTL60-s"].auth_queries
        assert reduction_unique > 0.5
        assert reduction_shared > 0.5

    def test_long_ttl_cuts_median_latency(self, runs):
        from repro.analysis.cdf import ECDF

        assert ECDF(runs["TTL86400-u"].rtts_ms()).median < ECDF(
            runs["TTL60-u"].rtts_ms()
        ).median / 2

    def test_caching_beats_anycast_at_median(self, runs):
        from repro.analysis.cdf import ECDF

        anycast = ECDF(runs["TTL60-anycast"].rtts_ms())
        cached = ECDF(runs["TTL86400-s"].rtts_ms())
        short = ECDF(runs["TTL60-s"].rtts_ms())
        # §6.2 ordering: TTL86400 < anycast < TTL60 at the median.
        assert cached.median < anycast.median < short.median

    def test_anycast_helps_the_tail(self, runs):
        from repro.analysis.cdf import ECDF

        anycast = ECDF(runs["TTL60-anycast"].rtts_ms())
        short = ECDF(runs["TTL60-s"].rtts_ms())
        assert anycast.quantile(0.95) < short.quantile(0.95)

    def test_shared_names_warm_caches(self, runs):
        # Shared-name runs see fewer authoritative queries than unique-name
        # runs (other VPs warm the resolver caches).
        assert runs["TTL60-s"].auth_queries < runs["TTL60-u"].auth_queries
