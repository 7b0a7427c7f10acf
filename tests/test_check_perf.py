"""The perf gate (``benchmarks/check_perf.py``) on synthetic records.

``make perf-check`` only ever ran against whatever the last bench run
left on disk; these tests hand it a ``BENCH_perf.json`` and a baseline
written for the purpose, so each verdict the gate can reach is executed.
"""

import json

import pytest

from benchmarks import check_perf, perf_records


@pytest.fixture
def gate(tmp_path, monkeypatch, capsys):
    """``gate(current, baseline, *argv)`` -> (exit status, printed lines)."""

    def run(current, baseline, *argv):
        records = tmp_path / "BENCH_perf.json"
        floors = tmp_path / "baseline_perf.json"
        if current is not None:
            records.write_text(json.dumps({"benches": current}))
        floors.write_text(json.dumps({"benches": baseline}))
        monkeypatch.setattr(check_perf, "RECORDS_PATH", records)
        monkeypatch.setattr(perf_records, "BASELINE_PATH", floors)
        status = check_perf.main(list(argv))
        return status, capsys.readouterr().out

    return run


BASELINE = {"warm_resolution": {"ops_per_s": 1000.0}}


def test_a_30_percent_drop_on_a_gated_bench_exits_1(gate):
    status, out = gate({"warm_resolution": {"ops_per_s": 700.0}}, BASELINE,
                       "warm_resolution", "--max-regression", "0.25")
    assert status == 1
    assert "FAIL warm_resolution" in out


def test_a_drop_inside_the_tolerance_exits_0(gate):
    status, out = gate({"warm_resolution": {"ops_per_s": 800.0}}, BASELINE,
                       "warm_resolution", "--max-regression", "0.25")
    assert status == 0
    assert "  ok warm_resolution" in out


def test_faster_than_baseline_always_passes(gate):
    status, _ = gate({"warm_resolution": {"ops_per_s": 5000.0}}, BASELINE,
                     "warm_resolution")
    assert status == 0


def test_a_gated_bench_missing_from_the_records_fails(gate):
    status, out = gate({}, BASELINE, "warm_resolution")
    assert status == 1
    assert "FAIL warm_resolution: not present" in out


def test_a_bench_without_a_baseline_is_skipped(gate):
    status, out = gate({"new_bench": {"ops_per_s": 1.0}}, BASELINE, "new_bench")
    assert status == 0
    assert "SKIP new_bench" in out


def test_no_records_file_fails(gate):
    status, out = gate(None, BASELINE, "warm_resolution")
    assert status == 1
    assert "run `make bench-perf` first" in out


def _curve(w1, w2, cpus):
    return {
        "serve_worker_scaling_w1": {"ops_per_s": w1, "cpus": cpus},
        "serve_worker_scaling_w2": {"ops_per_s": w2, "cpus": cpus},
    }


@pytest.mark.parametrize("cpus", [1, 8])
def test_worker_curve_may_slope_down_but_not_collapse(gate, cpus):
    # The rule is the same on every host class: extra workers need not
    # help, each step must stay within the scaling tolerance.
    status, out = gate(_curve(100.0, 90.0, cpus), {}, "x")
    assert status == 0
    assert "within 50% of w1" in out
    status, out = gate(_curve(100.0, 40.0, cpus), {}, "x")
    assert status == 1
    assert "FAIL worker curve w1->w2" in out


def _campaign(parallel_wall, cpus):
    return {
        "campaign_large": {
            "ops_per_s": 2000.0, "cpus": cpus, "speedup": 1.0,
            "serial_wall_s": 10.0, "parallel4_wall_s": parallel_wall,
        }
    }


@pytest.mark.parametrize("cpus", [1, 8])
def test_campaign_gate_is_uplift_plus_bounded_overhead(gate, cpus):
    baseline = {"campaign_throughput": {"ops_per_s": 1000.0}}
    status, out = gate(_campaign(11.0, cpus), baseline, "x")
    assert status == 0, out
    # Past the 1.15x overhead cap.
    status, out = gate(_campaign(12.0, cpus), baseline, "x")
    assert status == 1
    assert "FAIL campaign_large 4-worker" in out
    # Below 1.3x the campaign_throughput floor.
    slow = _campaign(11.0, cpus)
    slow["campaign_large"]["ops_per_s"] = 1200.0
    status, out = gate(slow, baseline, "x")
    assert status == 1
    assert "FAIL campaign_large single-worker" in out

