#!/usr/bin/env python3
"""Caching as DDoS insulation: long TTLs keep answers flowing (paper §6.1).

A zone's authoritative servers go down for an hour (a DDoS, as in the
2016 Dyn attack the paper cites).  Clients behind resolvers that cached
the records *before* the attack keep getting answers as long as the TTL
outlives the outage; short-TTL zones go dark almost immediately.
Serve-stale resolvers (RFC 8767) keep answering even past expiry.

The outage is driven through ``repro.faults`` — a declarative, seeded
:class:`FaultPlan` the scenario schedules against the virtual clock —
so the same failure is reproducible, parallelizable, and observable in
the metrics stream.  See docs/resilience.md for the fault-plan schema.

Run:  python examples/ddos_resilience.py
"""

from repro.analysis.tables import Table
from repro.core.scenarios import scenario_ddos_resilience

TTLS = (60, 300, 1800, 3600, 86400)
ATTACK_SECONDS = 3600.0


def main() -> None:
    print("Probing warmed resolvers through a one-hour authoritative outage")
    print("(one probe per 5-minute slot; the attack is a scheduled fault).\n")

    run = scenario_ddos_resilience(ttls=TTLS, attack_seconds=ATTACK_SECONDS)

    table = Table(
        ["TTL", "availability", "with serve-stale", "served stale"],
        title="§6.1: answer availability during the attack",
    )
    for ttl in TTLS:
        plain = run.cell(False, ttl)
        rescued = run.cell(True, ttl)
        table.add_row(
            f"{ttl}s",
            f"{plain.availability * 100:.0f}%",
            f"{rescued.availability * 100:.0f}%",
            f"{rescued.served_stale_fraction * 100:.0f}%",
        )
    print(table.render())

    metrics = run.metrics.to_payload()["metrics"]
    dropped = metrics["faults.injected"]["values"]["server_outage"]
    healed = metrics["faults.recovered"]["values"]["server_outage"]
    print(f"\nFault ledger: {dropped} transmissions dropped, "
          f"{healed} outage windows healed after the attack lifted.")
    print("Long TTLs ride out the outage (paper §6.1: 'caching is a key")
    print("component of DNS resilience... TTLs must be longer than the attack').")

    # The headline §6.1 shape, asserted so this example doubles as a check.
    profile = run.profile("availability", False)
    assert profile[60] == 0.0, profile
    assert profile[3600] == 1.0 and profile[86400] == 1.0, profile
    assert all(
        value == 1.0 for value in run.profile("availability", True).values()
    ), "serve-stale should rescue every tier"


if __name__ == "__main__":
    main()
