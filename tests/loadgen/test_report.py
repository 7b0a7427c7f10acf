"""The ``loadgen.*`` export of a fixed :class:`LoadReport`, pinned.

``repro loadgen --metrics`` writes exactly this snapshot, so every name,
kind, domain and value below is part of the file format.
"""

from repro.loadgen.report import LOADGEN_LATENCY_BUCKETS_MS, LoadReport
from repro.metrics import FIXED_POINT, HOST, MetricsRegistry

LATENCIES_MS = [0.5, 1.5, 2.5, 40.0]


def report() -> LoadReport:
    return LoadReport.from_outcomes(
        mode="closed",
        offered_qps=10.0,
        wall_s=2.0,
        latencies_ms=list(LATENCIES_MS),
        lost=1,
        attempts=7,
        rcodes={0: 3, 2: 1},
        parse_errors=1,
    )


def exported() -> dict:
    registry = MetricsRegistry()
    report().to_metrics(registry)
    return registry.snapshot().to_payload()["metrics"]


def test_scalars_and_rcodes():
    metrics = exported()
    assert {name: metric["domain"] for name, metric in metrics.items()} == dict.fromkeys(
        (
            "loadgen.achieved_qps", "loadgen.attempts", "loadgen.latency_ms",
            "loadgen.lost", "loadgen.parse_errors", "loadgen.rcode",
            "loadgen.received", "loadgen.sent",
        ),
        HOST,
    )
    scalars = {
        name: (metric["kind"], metric.get("value", metric.get("values")))
        for name, metric in metrics.items()
        if name != "loadgen.latency_ms"
    }
    assert scalars == {
        "loadgen.achieved_qps": ("gauge", 2.5),
        "loadgen.attempts": ("counter", 7),
        "loadgen.lost": ("counter", 1),
        "loadgen.parse_errors": ("counter", 1),
        "loadgen.rcode": ("labeled_counter", {"NOERROR": 3, "SERVFAIL": 1}),
        "loadgen.received": ("counter", 4),
        "loadgen.sent": ("counter", 5),
    }


def test_latency_histogram():
    latency = exported()["loadgen.latency_ms"]
    assert latency["kind"] == "histogram"
    assert latency["bounds"] == list(LOADGEN_LATENCY_BUCKETS_MS)
    assert sum(latency["counts"]) == 4 and latency["overflow"] == 0
    assert latency["count"] == 4
    assert latency["sum_fp"] == 44_500_000 == round(sum(LATENCIES_MS) * FIXED_POINT)
    assert (latency["min"], latency["max"]) == (0.5, 40.0)

