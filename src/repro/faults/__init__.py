"""Deterministic, schedule-driven fault injection (docs/resilience.md).

A :class:`FaultPlan` declares *when and how* the simulated DNS ecosystem
breaks — outages, loss, delay, SERVFAIL storms, rate limits, anycast site
failures, resolver restarts — as JSON keyed to the virtual clock.  A
:class:`FaultInjector` applies one plan to one network; attach it with
``network.attach_faults(injector)`` after ``attach_metrics`` and every
hook point (transport, servers, resolvers) starts consulting it.

Determinism contract: the injector's randomness is seeded from
``(plan.seed, shard seed)`` via :func:`derive_fault_seed`, so a faulted
campaign run serially, with ``--parallel N``, or resumed from a
checkpoint produces byte-identical sim-domain metrics.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "injector": ("FaultInjector", "TTR_BUCKETS_S", "attach_fault_plan"),
    "plan": ("KINDS", "SCHEMA_ID", "FaultPlan", "FaultPlanError", "FaultSpec",
             "derive_fault_seed", "validate_json", "validate_payload"),
})
