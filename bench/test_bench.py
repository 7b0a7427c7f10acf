"""Tests of the benchmark itself: ``pytest bench -q`` (not part of tier-1).

Every workload runs once at 2% of its size, untraced and traced; the
assertions are about determinism, the metric contract in BENCHMARK.json and
the layer separation the workloads were chosen for.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import run
import workloads

SEED = 7
SCALE = 0.02
NAMES = list(workloads.SPECS)

with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(name: str, trace: int) -> dict:
    return run.run_workload(name, SEED, seconds=0.0, trace=trace, scale=SCALE, setup_runs=1)


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {name: _run(name, trace=0) for name in NAMES}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: _run(name, trace=1) for name in NAMES}


def _value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def test_runs_are_correct_and_nothing_fails(untraced, traced):
    for result in list(untraced.values()) + list(traced.values()):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_benchmark_json_names_match_what_is_emitted(untraced, traced):
    assert [entry["name"] for entry in SPEC["workloads"]] == NAMES
    assert SPEC["paths"] == ["bench"]
    end_to_end = [entry["name"] for entry in SPEC["end_to_end"]]
    per_layer = [entry["name"] for entry in SPEC["per_layer"]]
    assert "setup_s" in end_to_end
    for name in NAMES:
        assert sorted(untraced[name]["metrics"]) == sorted(end_to_end)
        assert sorted(traced[name]["metrics"]) == sorted(per_layer)
        for metric, entry in untraced[name]["metrics"].items():
            assert entry["value"] > 0, metric  # end-to-end metrics are never 0
    units = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in end_to_end + per_layer:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for result in (untraced, traced):
        for metric, entry in result[NAMES[0]]["metrics"].items():
            assert entry["unit"] == units[metric]


def test_same_seed_repeats_exactly_and_another_seed_does_not(traced):
    for name in NAMES:
        again = _run(name, trace=1)
        other = run.Measured(workloads.build(name, SEED + 1, SCALE))
        run.timed_round(other.workload, other)
        assert again["notes"]["digest"] == traced[name]["notes"]["digest"]
        assert other.first.digest != traced[name]["notes"]["digest"]
        for metric in run.EXACT_PER_LAYER:
            assert _value(again, metric) == _value(traced[name], metric), metric


def test_traced_calls_add_up_to_the_untraced_cost(untraced, traced):
    for name in NAMES:
        layers = sum(
            _value(traced[name], f"{layer}.calls_per_query")
            for layer in run.tracing.LAYERS
            if layer != "harness"
        )
        assert layers == pytest.approx(_value(untraced[name], "py_calls_per_query"), rel=1e-3)


def test_layer_separation(traced):
    long_ttl, short_ttl = traced["campaign_ttl86400"], traced["campaign_ttl60"]
    hot, churn = traced["serve_hot"], traced["serve_churn"]
    for campaign in (long_ttl, short_ttl):
        assert _value(campaign, "dns.wire.calls_per_query") == 0
        assert _value(campaign, "serve.frontend.calls_per_query") == 0
    for serve in (hot, churn):
        assert _value(serve, "runner.calls_per_query") == 0
        assert _value(serve, "atlas.calls_per_query") == 0
    # At 2% size the 200 first-touch misses weigh 25x more than at full size,
    # where the share is 0.98.
    assert _value(hot, "serve.memo.hit_share") >= 0.9
    assert _value(churn, "serve.memo.hit_share") == 0
    assert _value(churn, "serve.frontend.slow_path_share") == 1
    assert _value(long_ttl, "net.transport.exchanges_per_query") < 0.05
    assert _value(short_ttl, "net.transport.exchanges_per_query") > 1.5
    assert _value(long_ttl, "resolver.cache.hit_share") > _value(
        short_ttl, "resolver.cache.hit_share"
    )


def test_span_sample_is_written_and_well_formed(traced):
    for name in NAMES:
        with open(os.path.join(run.OUT_DIR, f"trace-{name}.json")) as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert 0 < trace["requests"] <= workloads.SPAN_REQUESTS
        assert {span["request"] for span in spans} == set(range(1, trace["requests"] + 1))
        for index, span in enumerate(spans):
            assert span["end_ns"] is not None and span["end_ns"] >= span["start_ns"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert span["parent"] < index
                assert parent["request"] == span["request"]
                assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_response_check_rejects_a_wrong_answer():
    workload = workloads.build("serve_churn", SEED, SCALE)
    state = workload.fresh(sample=True)
    responses = workload.work(state)
    assert workload.check(state, responses).failed == 0
    wire = responses[0]
    # The response ends with an 11-octet OPT record; the A rdata sits before it.
    responses[0] = wire[:-12] + bytes([wire[-12] ^ 1]) + wire[-11:]
    responses[1] = b"\x00\x00" + responses[1][2:]  # wrong ID
    responses[2] = None
    assert workload.check(state, responses).failed == 3


def test_conservation_check_needs_all_three_counters():
    counters = dict.fromkeys(workloads.CONSERVED, 5)
    assert workloads.conservation_problems(counters) == []
    assert workloads.conservation_problems(dict(counters, **{"net.exchanges": 4}))
    assert workloads.conservation_problems({})
    del counters["auth.queries"]
    assert workloads.conservation_problems(counters)


def test_only_files_of_the_benchmark_count_as_harness():
    assert run.tracing.layer_of(os.path.join(run.BENCH_DIR, "workloads.py")) == "harness"
    assert run.tracing.layer_of(run.BENCH_DIR + "marks/bench_perf.py") == "python"
    cache = os.path.join(run.REPO_ROOT, "src", "repro", "resolver", "cache.py")
    assert run.tracing.layer_of(cache) == "resolver.cache"


def test_rounds_that_differ_fail_the_run():
    class Drifting(workloads.ServeWorkload):
        def fresh(self, sample: bool = False):
            self.step_s *= 2  # a later round sees other TTLs
            return super().fresh(sample)

    _, parameters, _ = workloads.SPECS["serve_churn"]
    measured = run.Measured(Drifting("drifting", SEED, SCALE, **parameters))
    run.timed_round(measured.workload, measured)
    with pytest.raises(run.CheckFailed):
        run.timed_round(measured.workload, measured)
