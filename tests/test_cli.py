"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestRecommend:
    def test_general(self, capsys):
        assert main(["recommend"]) == 0
        out = capsys.readouterr().out
        assert "NS TTL" in out

    def test_registry_flags(self, capsys):
        assert main(["recommend", "--kind", "registry", "--no-parent-control"]) == 0
        out = capsys.readouterr().out
        assert "86400" in out
        assert "parent" in out.lower()

    def test_ddos(self, capsys):
        assert main(["recommend", "--ddos-mitigation"]) == 0
        out = capsys.readouterr().out
        assert "300 s" in out


class TestEffective:
    def test_uy_configuration(self, capsys):
        assert main([
            "effective", "--parent-ns", "172800", "--child-ns", "300",
            "--parent-glue", "172800", "--child-address", "120",
        ]) == 0
        out = capsys.readouterr().out
        assert "child" in out and "parent" in out
        assert "172800s" in out and "300s" in out
        assert "never" in out  # the sticky row

    def test_out_of_bailiwick(self, capsys):
        assert main([
            "effective", "--parent-ns", "3600", "--child-ns", "3600",
            "--child-address", "7200", "--out-of-bailiwick",
            "--policies", "child",
        ]) == 0
        out = capsys.readouterr().out
        assert "7200s" in out

    def test_validating_is_child_centric(self, capsys):
        # The signature encloses the child's TTL (paper §2).
        assert main([
            "effective", "--parent-ns", "172800", "--child-ns", "300",
            "--policies", "child", "validating",
        ]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            label, *columns = (cell.strip() for cell in line.split("|"))
            rows[label] = columns
        assert rows["validating"] == rows["child"] == ["300s", "-", "child", "300s"]


class TestHitrate:
    def test_table_and_knee(self, capsys):
        assert main(["hitrate", "--rate-per-hour", "12", "--ttl", "300", "3600"]) == 0
        out = capsys.readouterr().out
        assert "50.0%" in out  # λT = 1 at 300 s and 12/hour
        assert "90% of the caching benefit" in out


class TestAudit:
    CHILD = (
        "$ORIGIN z.example.\n"
        "$TTL 300\n"
        "@ IN SOA ns1 h 1 7200 3600 86400 300\n"
        "@ 300 IN NS ns1\n"
        "ns1 7200 IN A 192.0.2.1\n"
    )

    def test_audit_reports_findings(self, tmp_path, capsys):
        zonefile = tmp_path / "child.zone"
        zonefile.write_text(self.CHILD)
        assert main(["audit", str(zonefile)]) == 0  # warnings only
        out = capsys.readouterr().out
        assert "address-outlives-ns" in out
        assert "ns-ttl-short" in out

    def test_audit_error_exit_code(self, tmp_path, capsys):
        zonefile = tmp_path / "broken.zone"
        zonefile.write_text(
            "$ORIGIN z.example.\n@ 30 IN NS ns1\n"  # in-bailiwick, no glue
        )
        assert main(["audit", str(zonefile)]) == 1
        assert "missing-inbailiwick-address" in capsys.readouterr().out

    def test_audit_with_parent(self, tmp_path, capsys):
        child = tmp_path / "child.zone"
        child.write_text(self.CHILD)
        parent = tmp_path / "parent.zone"
        parent.write_text(
            "$ORIGIN example.\n"
            "z 172800 IN NS ns1.z\n"
            "ns1.z 172800 IN A 192.0.2.1\n"
        )
        main(["audit", str(child), "--parent-zonefile", str(parent)])
        assert "parent-child-ttl-mismatch" in capsys.readouterr().out


class TestAnalyze:
    @pytest.fixture
    def dataset(self, tmp_path, mini_world):
        from repro.atlas.datasets import save_results
        from repro.atlas.measurement import Measurement, MeasurementSpec
        from repro.atlas.population import AtlasConfig, AtlasPopulation
        from repro.dns.rdtypes import RdataType

        population = AtlasPopulation(
            AtlasConfig(probes=15, seed=4),
            mini_world.topology,
            mini_world.network,
            mini_world.hints,
            mini_world.root_zone,
        )
        spec = MeasurementSpec("example.tld.", RdataType.NS, interval=600, duration=1200)
        results = Measurement(spec=spec, vantage_points=population.vantage_points()).run()
        path = tmp_path / "run.jsonl"
        save_results(results, path)
        return path

    def test_summary_printed(self, dataset, capsys):
        assert main(["analyze", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "probes" in out and "TTLs:" in out and "RTTs:" in out

    def test_centricity_with_ttls(self, dataset, capsys):
        assert main([
            "analyze", str(dataset), "--parent-ttl", "7200", "--child-ttl", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "centricity:" in out


class TestReproduce:
    def test_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "172800" in out and "a.nic.cl" in out

    def test_fig10(self, capsys):
        assert main(["reproduce", "fig10", "--probes", "40"]) == 0
        out = capsys.readouterr().out
        assert "TTL 300s" in out and "TTL 86400s" in out

    def test_unknown_artifact(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err


class TestSimulationCommands:
    def test_demo_uy(self, capsys):
        assert main(["demo-uy", "--probes", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "TTL 300s" in out and "TTL 86400s" in out

    def test_crawl(self, capsys):
        assert main(["crawl", "--scale", "0.0002", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "out-of-bailiwick" in out
        assert "Alexa" in out


class TestMetricsCommand:
    def _snapshot_file(self, tmp_path):
        from types import SimpleNamespace

        from repro.metrics import Histogram, MetricsRegistry, log_buckets
        from repro.metrics.registry import COUNTER, HISTOGRAM, LABELED_COUNTER

        owner = SimpleNamespace(
            hits=42, queries={"ns1.example": 7},
            rtt=Histogram("net.rtt_ms", log_buckets(1.0, 1000.0)),
        )
        owner.rtt.observe(35.0)
        registry = MetricsRegistry()
        registry.collect(owner, [
            ("cache.hits", COUNTER, "hits"),
            ("auth.queries", LABELED_COUNTER, "queries"),
            ("net.rtt_ms", HISTOGRAM, "rtt"),
        ])
        path = tmp_path / "metrics.json"
        path.write_text(registry.snapshot().to_json(include_host=True))
        return path

    def test_render(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path)
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cache.hits" in out and "42" in out
        assert "auth.queries" in out and "net.rtt_ms" in out

    def test_validate_only(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path)
        assert main(["metrics", str(path), "--validate-only"]) == 0
        out = capsys.readouterr().out
        assert "valid (3 metrics)" in out

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "repro.metrics/v1", "metrics": {"c": '
                        '{"kind": "counter", "domain": "sim", "value": -5}}}')
        assert main(["metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid" in err

    def test_run_writes_metrics_file(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert main([
            "run", "t2-uy", "--probes", "8", "--duration", "600",
            "--metrics", str(out), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out), "--validate-only"]) == 0
        assert "valid" in capsys.readouterr().out


class TestRunProfileAndSnapshots:
    def test_serial_profile_writes_whole_campaign_stats(self, tmp_path, capsys):
        import pstats

        stats = tmp_path / "campaign.pstats"
        assert main([
            "run", "t2-uy", "--probes", "8", "--duration", "600",
            "--profile", str(stats), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert stats.exists()
        assert pstats.Stats(str(stats)).total_calls > 0

    def test_parallel_profile_writes_per_shard_stats(self, tmp_path, capsys):
        stats = tmp_path / "campaign.pstats"
        assert main([
            "run", "t2-uy", "--probes", "8", "--duration", "600",
            "--parallel", "2", "--shards", "2",
            "--profile", str(stats), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert not stats.exists()  # per-shard dumps only under --parallel
        shard_files = sorted(p.name for p in tmp_path.glob("campaign.pstats.shard-*"))
        assert shard_files == ["campaign.pstats.shard-0000",
                               "campaign.pstats.shard-0001"]

    def test_snapshot_every_requires_run_dir(self, capsys):
        assert main([
            "run", "t2-uy", "--probes", "8", "--duration", "600",
            "--snapshot-every", "50", "--quiet",
        ]) == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_snapshot_every_rejects_non_centricity_campaign(self, tmp_path, capsys):
        assert main([
            "run", "ddos", "--run-dir", str(tmp_path / "run"),
            "--snapshot-every", "50", "--quiet",
        ]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_snapshot_run_completes_and_leaves_no_wsnap(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([
            "run", "t2-uy", "--probes", "8", "--duration", "600",
            "--run-dir", str(run_dir), "--snapshot-every", "10", "--quiet",
        ]) == 0
        capsys.readouterr()
        assert list(run_dir.glob("shard-*.pkl"))
        assert not list(run_dir.glob("wsnap-*.pkl"))


class TestServeLoadgen:
    def test_loadgen_requires_port(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["loadgen"])

    def test_loadgen_metrics_file_is_the_canonical_json(self, tmp_path, monkeypatch, capsys):
        from repro.loadgen import client
        from repro.metrics import MetricsRegistry
        from tests.loadgen.test_report import report

        monkeypatch.setattr(client, "run_loadgen", lambda config: report())
        path = tmp_path / "loadgen.json"
        assert main(["loadgen", "--port", "53", "--metrics", str(path)]) == 0
        capsys.readouterr()
        registry = MetricsRegistry()
        report().to_metrics(registry)
        assert path.read_text() == registry.snapshot().to_json(include_host=True)

    def test_merged_worker_metrics_file_is_the_canonical_json(self, tmp_path):
        from repro.metrics import MetricsRegistry
        from repro.serve.config import ServeConfig
        from repro.serve.workers import merge_worker_metrics, worker_metrics_path
        from tests.loadgen.test_report import report

        config = ServeConfig(workers=2, port=5300, metrics_path=str(tmp_path / "m.json"))
        for index in range(2):
            registry = MetricsRegistry()
            report().to_metrics(registry)
            with open(worker_metrics_path(config.metrics_path, index), "w") as stream:
                stream.write(registry.snapshot().to_json(include_host=True))
        merged = merge_worker_metrics(config)
        assert merged.value("loadgen.sent") == 10
        with open(config.metrics_path) as stream:
            assert stream.read() == merged.to_json(include_host=True)

    def test_serve_rejects_unknown_world(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["serve", "--world", "narnia"])

    def test_analyze_querylog_flag(self, tmp_path, capsys):
        from repro.dns.name import Name
        from repro.dns.rdtypes import RdataType
        from repro.server.querylog import QueryLogEntry, QueryLogWriter

        path = tmp_path / "live.jsonl"
        with QueryLogWriter(path) as writer:
            for ts in (0.0, 10.0, 3700.0):
                writer.append(QueryLogEntry(ts, "10.0.0.1", 0, Name("www.domain1.nl."),
                                            RdataType.A, "serve"))
        assert main(["analyze", str(path), "--querylog"]) == 0
        out = capsys.readouterr().out
        assert "groups (client, qname)" in out
        assert "min interarrival" in out
