"""Faulted campaigns honour the runner's determinism contract.

Serial (``--parallel 1``) and parallel (``--parallel 4``) executions of
the same faulted campaign must produce identical results and
byte-identical sim-domain metrics JSON, and a checkpointed run must
replay the exact fault schedule (a changed plan is a different campaign).
"""

import filecmp

import pytest

from repro.cli import main
from repro.core.scenarios import scenario_ddos_resilience, scenario_uy_ns
from repro.faults import FaultPlan, FaultSpec
from repro.runner.checkpoint import CheckpointMismatch


def loss_plan(rate=0.4) -> FaultPlan:
    return FaultPlan(
        faults=(
            FaultSpec(kind="loss", start=0.0, duration=3600.0, rate=rate),
            FaultSpec(kind="servfail", start=600.0, duration=600.0),
        ),
        name="det-test",
        seed=3,
    )


class TestScenarioIdentity:
    def test_ddos_serial_vs_parallel(self):
        serial = scenario_ddos_resilience(ttls=(300, 3600), parallelism=1)
        parallel = scenario_ddos_resilience(ttls=(300, 3600), parallelism=4)
        assert serial.cells == parallel.cells
        assert serial.metrics.to_json() == parallel.metrics.to_json()

    def test_uy_faulted_serial_vs_parallel(self):
        kwargs = dict(probes=12, duration=1800.0, shards=4, faults=loss_plan())
        serial = scenario_uy_ns(parallelism=1, **kwargs)
        parallel = scenario_uy_ns(parallelism=4, **kwargs)
        assert serial.results.ttls() == parallel.results.ttls()
        assert serial.results.rtts_ms() == parallel.results.rtts_ms()
        assert serial.metrics.to_json() == parallel.metrics.to_json()
        counts = serial.metrics.to_payload()["metrics"]["faults.injected"]
        assert counts["values"]  # the plan actually fired

    def test_plan_accepts_payload_dict(self):
        plan = loss_plan()
        by_object = scenario_uy_ns(probes=8, duration=1200.0, parallelism=1,
                                   faults=plan)
        by_payload = scenario_uy_ns(probes=8, duration=1200.0, parallelism=1,
                                    faults=plan.to_payload())
        assert by_object.metrics.to_json() == by_payload.metrics.to_json()


class TestCliIdentity:
    def test_faulted_metrics_files_are_byte_identical(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(loss_plan().to_json(), encoding="ascii")
        serial_file = tmp_path / "serial.json"
        parallel_file = tmp_path / "parallel.json"
        base = ["run", "t2-uy", "--probes", "12", "--duration", "1800",
                "--shards", "4", "--quiet", "--faults", str(plan_file)]
        assert main(base + ["--metrics", str(serial_file)]) == 0
        assert main(base + ["--parallel", "4", "--metrics", str(parallel_file)]) == 0
        assert filecmp.cmp(serial_file, parallel_file, shallow=False)

    def test_invalid_plan_rejected(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"schema": "repro.faults/v1", "faults": '
                             '[{"kind": "loss", "start": 0, "duration": 1}]}\n',
                             encoding="ascii")
        assert main(["run", "t2-uy", "--quiet", "--faults", str(plan_file)]) == 2
        assert "rate" in capsys.readouterr().err

    def test_missing_plan_file_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", "t2-uy", "--quiet", "--faults", missing]) == 2
        assert main(["faults", missing]) == 2
        err = capsys.readouterr().err
        assert "cannot read fault plan" in err

    def test_unfaultable_campaign_rejected(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(loss_plan().to_json(), encoding="ascii")
        assert main(["run", "crawl", "--quiet", "--faults", str(plan_file)]) == 2


class TestCheckpointReplay:
    def test_resume_replays_and_rejects_changed_plan(self, tmp_path):
        run_dir = str(tmp_path / "campaign")
        kwargs = dict(probes=12, duration=1800.0, shards=4, parallelism=1,
                      run_dir=run_dir)
        first = scenario_uy_ns(faults=loss_plan(), **kwargs)
        resumed = scenario_uy_ns(faults=loss_plan(), **kwargs)
        assert first.metrics.to_json() == resumed.metrics.to_json()
        # A different schedule is a different campaign: the run dir must
        # refuse to mix the two rather than resume with stale shards.
        with pytest.raises(CheckpointMismatch):
            scenario_uy_ns(faults=loss_plan(rate=0.9), **kwargs)
