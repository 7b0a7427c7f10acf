"""Tests for scenario_push_vs_poll (pub/sub updates vs TTL polling)."""

import pytest

from repro.core.scenarios import scenario_push_vs_poll


class TestPushVsPoll:
    @pytest.fixture(scope="class")
    def run(self):
        # changes=6 keeps the change interval (~514 s) off the 60 s probe
        # grid, so neither channel gets a free alignment win.
        return scenario_push_vs_poll(
            seed=0, ttls=(60, 86400), duration=3600.0, changes=6
        )

    def test_covers_every_cell(self, run):
        assert {(c.plan, c.mode, c.ttl) for c in run.cells} == {
            (plan, mode, ttl)
            for plan in ("renumbering", "ddos")
            for mode in ("poll", "push")
            for ttl in (60, 86400)
        }

    def test_polling_trades_volume_for_freshness(self, run):
        # The paper's axis: short TTLs poll hard but stay fresh, long
        # TTLs are quiet but serve the old address for hours.
        fresh = run.cell("renumbering", "poll", 60)
        quiet = run.cell("renumbering", "poll", 86400)
        assert fresh.auth_queries > 10 * quiet.auth_queries
        assert fresh.mean_staleness_s < quiet.mean_staleness_s
        assert quiet.stale_probes > fresh.stale_probes

    def test_push_beats_polling_on_both_axes(self, run):
        # The headline: push at TTL 86400 posts (a) less authoritative
        # volume than TTL-60 polling at better freshness, and (b) a far
        # smaller staleness window than TTL-86400 polling at comparable
        # volume (SUBSCRIBEs only add a handful of exchanges).
        push = run.cell("renumbering", "push", 86400)
        loud = run.cell("renumbering", "poll", 60)
        quiet = run.cell("renumbering", "poll", 86400)
        assert push.auth_queries < loud.auth_queries / 10
        assert push.mean_staleness_s <= loud.mean_staleness_s
        assert push.auth_queries < quiet.auth_queries + 2 * run.seats
        assert push.mean_staleness_s < quiet.mean_staleness_s / 5
        assert push.notifications > 0
        assert push.stale_rate < quiet.stale_rate

    def test_ddos_long_ttl_push_keeps_answering(self, run):
        # Under the outage, short-TTL polling goes dark on expiry while
        # the push seats ride their long-TTL cache through the window.
        dark = run.cell("ddos", "poll", 60)
        push = run.cell("ddos", "push", 86400)
        assert dark.answered_rate < 1.0
        assert push.answered_rate == 1.0
        assert push.answered_rate > dark.answered_rate

    def test_ddos_breaks_and_recovers_push_sessions(self, run):
        # A NOTIFY published into the outage dooms sessions; the seeded
        # backoff reconnects and re-SUBSCRIBEs after the window lifts.
        push = run.cell("ddos", "push", 86400)
        assert push.session_resets > 0
        assert push.reconnects > 0

    def test_analytic_poll_miss_rate_brackets_the_measurement(self, run):
        # Jung et al.: a seat probing at rate lambda misses (and hence
        # queries the authoritative) at lambda/(1 + lambda*TTL) qps.  The
        # form counts content misses only, so it bounds the measured
        # volume from below.  The allowance above it is derived, not
        # fitted: the seats probe on a fixed period P, not as a Poisson
        # stream, so over D seconds a seat makes D/P + 1 probes and, at
        # TTL = kP, misses on every k-th of them -- at most twice the
        # Poisson count plus one (the first fill) -- and each seat
        # refetches the glue (the A of the child's own server name) once.
        # At TTL = P the bound is tight: seed 0 measures 248 = 4 seats x
        # (61 probes + 1 glue) against a model of 120; at TTL 86400 it
        # measures 8 against 0.17 (see EXPERIMENTS.md).
        lam = 1.0 / run.probe_interval
        for ttl in (60, 86400):
            measured = run.cell("renumbering", "poll", ttl).auth_queries
            model = lam / (1.0 + lam * ttl) * run.seats * run.duration
            assert model <= measured <= 2 * model + 2 * run.seats

    def test_metrics_ride_along(self, run):
        assert run.metrics is not None
        exported = run.metrics.without_host()
        assert exported.value("push.notifications") > 0
        assert exported.value("push.subscribes") > 0
        assert "push.staleness_s" in exported.metrics

    def test_profiles_cover_the_ttl_axis(self, run):
        assert set(run.profile("mean_staleness_s", "renumbering", "push")) == {60, 86400}
        assert set(run.profile("auth_queries", "ddos", "poll")) == {60, 86400}

    def test_cell_lookup_raises_on_unknown(self, run):
        with pytest.raises(KeyError):
            run.cell("renumbering", "poll", 12345)


class TestValidation:
    def test_rejects_unknown_plan(self):
        with pytest.raises(ValueError):
            scenario_push_vs_poll(plans=("meteor",))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            scenario_push_vs_poll(modes=("carrier-pigeon",))

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            scenario_push_vs_poll(ttls=())


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        kwargs = dict(seed=3, ttls=(60, 86400), duration=1800.0, changes=3)
        serial = scenario_push_vs_poll(parallelism=1, **kwargs)
        parallel = scenario_push_vs_poll(parallelism=4, **kwargs)
        assert parallel.metrics.to_json() == serial.metrics.to_json()
        assert parallel.cells == serial.cells

    def test_inline_matches_sharded(self):
        kwargs = dict(seed=3, ttls=(60, 86400), duration=1800.0, changes=3)
        inline = scenario_push_vs_poll(**kwargs)
        sharded = scenario_push_vs_poll(parallelism=2, **kwargs)
        assert inline.cells == sharded.cells
        assert inline.metrics.to_json() == sharded.metrics.to_json()
