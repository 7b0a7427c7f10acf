"""Tests for repro.atlas.measurement."""

from repro.atlas.measurement import Measurement, MeasurementSpec, run_once
from repro.atlas.population import AtlasConfig, AtlasPopulation
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType


def vps(mini_world, probes=30, seed=0):
    population = AtlasPopulation(
        AtlasConfig(probes=probes, seed=seed),
        mini_world.topology,
        mini_world.network,
        mini_world.hints,
        mini_world.root_zone,
    )
    return population.vantage_points()


class TestSpec:
    def test_rounds(self):
        spec = MeasurementSpec("x.", RdataType.A, interval=600, duration=7200)
        assert spec.rounds() == 12

    def test_probeid_substitution(self):
        spec = MeasurementSpec("PROBEID.sub.example.", RdataType.AAAA)
        assert spec.qname_for(42) == Name("p42.sub.example.")

    def test_plain_qname(self):
        spec = MeasurementSpec("uy.", RdataType.NS)
        assert spec.qname_for(1) == Name("uy.")


class TestRun:
    def test_one_result_per_vp_per_round(self, mini_world):
        vantage = vps(mini_world)
        spec = MeasurementSpec("www.example.tld.", RdataType.A,
                               interval=600, duration=1800)
        results = Measurement(spec=spec, vantage_points=vantage).run()
        assert len(results) == 3 * len(vantage)

    def test_timestamps_within_round(self, mini_world):
        vantage = vps(mini_world)
        spec = MeasurementSpec("www.example.tld.", RdataType.A,
                               interval=600, duration=1200)
        results = Measurement(spec=spec, vantage_points=vantage).run()
        for result in results:
            low = result.round_index * 600
            assert low <= result.timestamp < low + 600

    def test_jitter_offsets_stable_per_vp(self, mini_world):
        vantage = vps(mini_world)
        spec = MeasurementSpec("www.example.tld.", RdataType.A,
                               interval=600, duration=1200)
        results = Measurement(spec=spec, vantage_points=vantage).run()
        by_vp = {}
        for result in results:
            by_vp.setdefault(result.vp_id, []).append(
                result.timestamp - result.round_index * 600
            )
        for offsets in by_vp.values():
            assert max(offsets) - min(offsets) < 1e-6

    def test_no_jitter_mode(self, mini_world):
        vantage = vps(mini_world)
        spec = MeasurementSpec("www.example.tld.", RdataType.A,
                               interval=600, duration=600, jitter=False)
        results = Measurement(spec=spec, vantage_points=vantage).run()
        assert all(result.timestamp == 0.0 for result in results)

    def test_events_fire_in_order(self, mini_world):
        vantage = vps(mini_world)
        spec = MeasurementSpec("www.example.tld.", RdataType.A,
                               interval=600, duration=1800)
        fired = []
        measurement = Measurement(spec=spec, vantage_points=vantage)
        measurement.schedule(540.0, lambda: fired.append(540))
        measurement.schedule(10.0, lambda: fired.append(10))
        measurement.run()
        assert fired == [10, 540]

    def test_event_effect_visible_after_time(self, mini_world):
        from repro.dns.rdtypes import A as Ard

        vantage = vps(mini_world)
        spec = MeasurementSpec("www.example.tld.", RdataType.A,
                               interval=600, duration=1800)
        measurement = Measurement(spec=spec, vantage_points=vantage)
        measurement.schedule(
            600.0,
            lambda: mini_world.child_zone.replace(
                "www.example.tld.", RdataType.A, Ard("198.51.100.99"), ttl=60
            ),
        )
        results = measurement.run()
        first_round = [r for r in results if r.round_index == 0 and r.answers]
        last_round = [r for r in results if r.round_index == 2 and r.answers]
        assert all("203.0.113.80" in r.answers for r in first_round)
        assert all("198.51.100.99" in r.answers for r in last_round)

    def test_deterministic_runs(self, mini_world):
        from tests.conftest import build_mini_world

        def run(world):
            spec = MeasurementSpec("www.example.tld.", RdataType.A,
                                   interval=600, duration=1200)
            return Measurement(
                spec=spec, vantage_points=vps(world, seed=2), seed=9
            ).run()

        a = run(mini_world)
        b = run(build_mini_world())
        assert [(r.vp_id, r.timestamp, r.ttl) for r in a] == [
            (r.vp_id, r.timestamp, r.ttl) for r in b
        ]

    def test_run_once(self, mini_world):
        vantage = vps(mini_world)
        results = run_once(vantage, "www.example.tld.", RdataType.A)
        assert len(results) == len(vantage)


class TestTicks:
    SPEC = MeasurementSpec("www.example.tld.", RdataType.A, interval=600, duration=1800)

    def ticks(self, world, run, progress_every, checkpoint_every):
        """The run's progress and checkpoint calls, in the order they came."""
        seen = []
        measurement = Measurement(
            spec=self.SPEC, vantage_points=vps(world, probes=9),
            progress=lambda done, total: seen.append(("progress", done, total)),
            progress_every=progress_every,
        )
        results = run(
            measurement,
            checkpoint_every=checkpoint_every,
            checkpoint=lambda state: seen.append(("checkpoint", state.position)),
        )
        return seen, len(results)

    def test_progress_every_zero_means_the_final_call_only(self, mini_world):
        # `done % progress_every` used to divide by zero mid-run.
        for never in (0, -5):
            seen, total = self.ticks(mini_world, Measurement.run, never, 0)
            assert seen == [("progress", total, total)]

    def test_ticks_come_when_the_per_query_loop_sent_them(self, mini_world):
        from tests.atlas.reference_measurement import reference_run
        from tests.conftest import build_mini_world

        # Steps that coincide (every 12th query), that divide the total
        # (the last tick and the final call both report it) and that
        # exceed it.
        for progress_every, checkpoint_every in ((4, 6), (3, 0), (1, 1), (1000, 7)):
            seen, total = self.ticks(
                mini_world, Measurement.run, progress_every, checkpoint_every
            )
            expected, _ = self.ticks(
                build_mini_world(), reference_run, progress_every, checkpoint_every
            )
            assert seen == expected
            assert seen[-1] == ("progress", total, total)
