"""Tests for repro.atlas.datasets (JSON-lines round trips)."""

import json

import pytest

from repro.atlas.datasets import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.atlas.measurement import Measurement, MeasurementSpec
from repro.atlas.population import AtlasConfig, AtlasPopulation
from repro.dns.rdtypes import RdataType


@pytest.fixture
def results(mini_world):
    population = AtlasPopulation(
        AtlasConfig(probes=20, seed=1),
        mini_world.topology,
        mini_world.network,
        mini_world.hints,
        mini_world.root_zone,
    )
    spec = MeasurementSpec("www.example.tld.", RdataType.A, interval=600, duration=1200)
    return Measurement(spec=spec, vantage_points=population.vantage_points()).run()


class TestRoundTrip:
    def test_dict_round_trip(self, results):
        for result in results:
            assert result_from_dict(result_to_dict(result)) == result

    def test_file_round_trip(self, results, tmp_path):
        path = tmp_path / "dataset.jsonl"
        written = save_results(results, path)
        assert written == len(results)
        loaded = load_results(path)
        assert list(loaded) == list(results)

    def test_analysis_survives_round_trip(self, results, tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_results(results, path)
        loaded = load_results(path)
        assert loaded.summary() == results.summary()
        assert loaded.ttls() == results.ttls()

    def test_campaign_set_round_trips_to_an_equal_set(self, tmp_path):
        from repro.core.scenarios import scenario_uy_ns

        run = scenario_uy_ns(seed=3, probes=12, duration=1200.0, parallelism=1, shards=2)
        path = tmp_path / "campaign.jsonl"
        assert save_results(run.results, path) == len(run.results) > 0
        loaded = load_results(path)
        # A file carries rows, not the spec they were measured under.
        loaded.spec = run.results.spec
        assert loaded == run.results

    def test_lines_are_json(self, results, tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_results(results, path)
        for line in path.read_text().splitlines():
            row = json.loads(line)
            assert row["v"] == 1

    def test_blank_lines_skipped(self, results, tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_results(results, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_results(path)) == len(results)


class TestErrors:
    def test_bad_schema_version(self, results, tmp_path):
        row = result_to_dict(list(results)[0])
        row["v"] = 99
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_results(path)

    def test_missing_field(self, results, tmp_path):
        row = result_to_dict(list(results)[0])
        del row["qname"]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_results(path)
