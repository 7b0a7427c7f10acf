"""§6.1 resilience scenario: the fault-injection reproduction.

Where ``bench_ablation_ddos`` sweeps availability by mutating the loss
model directly, this bench drives the same claim through the
:mod:`repro.faults` layer — the outage is a scheduled, observable fault,
so the report can show not just the availability cliff but the fault
ledger around it (injections, recoveries, time-to-recovery, serve-stale
engagements).
"""

from benchmarks.conftest import write_report
from repro.analysis.tables import Table
from repro.core.scenarios import scenario_ddos_resilience

ATTACK = 3600.0


def bench_ddos_resilience(benchmark):
    run = benchmark.pedantic(
        scenario_ddos_resilience, kwargs={"seed": 1}, rounds=1, iterations=1
    )
    table = Table(
        ["TTL", "availability", "serve-stale", "stale fraction", "recovered"],
        title=f"§6.1: availability through a {ATTACK / 3600:.0f}h "
              "authoritative DDoS (fault-injected)",
    )
    for ttl in sorted({tier.ttl for tier in run.cells}):
        plain = run.cell(False, ttl)
        rescued = run.cell(True, ttl)
        table.add_row(
            ttl,
            f"{plain.availability * 100:.0f}%",
            f"{rescued.availability * 100:.0f}%",
            f"{rescued.served_stale_fraction * 100:.0f}%",
            "yes" if plain.recovered else "no",
        )
    metrics = run.metrics.to_payload()["metrics"]
    injected = metrics["faults.injected"]["values"].get("server_outage", 0)
    recovered = metrics["faults.recovered"]["values"].get("server_outage", 0)
    ttr = metrics["faults.time_to_recovery_s"]
    report = table.render()
    report += (
        f"\n\nFault ledger: {injected} transmissions dropped by the outage "
        f"windows; {recovered} windows healed (first delivery "
        f"{ttr['min']:.0f}-{ttr['max']:.0f}s after lifting). "
        "The availability cliff sits at TTL == attack duration (Moura et "
        "al.: 'TTLs must be longer than the attack'); serve-stale "
        "(§3.1 / RFC 8767) decouples availability from the TTL entirely."
    )
    write_report("ddos_resilience", report)

    plain = run.profile("availability", False)
    assert plain[60] == 0.0
    assert 0.0 < plain[300] < 0.2
    assert plain[1800] == 0.5
    assert plain[3600] == 1.0 and plain[86400] == 1.0
    assert all(v == 1.0 for v in run.profile("availability", True).values())
    assert recovered >= 1
