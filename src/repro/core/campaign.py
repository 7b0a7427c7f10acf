"""The campaign registry: every ``repro run`` campaign as one spec.

The paper's method is one shape repeated — sweep an axis (usually the
TTL), run independent units, tabulate.  A :class:`CampaignSpec` names
the parts of that shape that differ between campaigns; everything else
is shared: :func:`run_campaign` is the only route into
:mod:`repro.runner`, :func:`run_grid` expands axes into seeded cells
and returns them as one :class:`GridRun`, and
:func:`repro.runner.campaigns.cell_shard` runs any cell by looking its
campaign up here.

The registry is data: implementations are named as ``"module:attr"``
and imported on first use, so building the CLI parser or listing
campaigns never imports a simulated Internet.
"""

from __future__ import annotations

import importlib
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["CAMPAIGNS", "CampaignSpec", "GridRun", "run_campaign", "run_grid"]


@dataclass(frozen=True)
class CampaignSpec:
    """What distinguishes one campaign from the next."""

    #: The ``repro run`` name.
    name: str
    #: Fingerprint ``kind`` — run directories are keyed on it.
    kind: str
    #: ``"module:function"`` — the public entry point.  Accepts ``seed``,
    #: ``parallelism``, ``run_dir``, ``progress``, ``profile``, the
    #: ``cli_args`` keys, and one argument per capability below.
    scenario: str
    #: ``"module:function"`` mapping the scenario's return value to
    #: ``(table text, MetricsSnapshot)`` for ``repro run``.
    render: str
    #: Scenario keyword -> the ``repro run`` option that supplies it.
    cli_args: dict[str, str]
    #: Accepts ``faults=``.  Campaigns that build many isolated worlds
    #: whose endpoints a plan cannot meaningfully target leave this off,
    #: so a schedule is rejected instead of ignored.
    faults: bool = False
    #: Accepts ``predict=``: resolver populations can be armed with
    #: refresh-ahead + RFC 8767 serve-stale (docs/prediction.md).
    predict: bool = False
    #: Accepts ``snapshot_every=``: shards run one long Measurement with
    #: a resumable cursor, worth spilling mid-shard world snapshots for.
    snapshot: bool = False
    #: Progress-ticker label; defaults to ``kind``.
    label: str = ""
    #: Shard function in :mod:`repro.runner.campaigns`.
    shard: str = "cell_shard"

    # -- grid campaigns (``shard == "cell_shard"``) only ---------------------
    #: ``"module:function"`` run as ``run_cell(**cell, metrics=registry)``.
    run_cell: str = ""
    #: Axis name -> valid values (``None``: any), outermost axis first.
    #: Cells are the axes' product in this order; cell ``index`` runs
    #: under ``seed + index``.
    axes: dict[str, Optional[tuple]] = field(default_factory=dict)
    #: Fingerprint key the cell list is recorded under; ``None``
    #: fingerprints the shared cell parameters instead.
    cells_key: Optional[str] = "cells"
    #: Simulated queries one cell result stands for (progress telemetry).
    queries_of: Callable[[Any], int] = operator.attrgetter("queries")

    def load(self, part: str) -> Callable:
        """Import and return the implementation named by field ``part``."""
        module, _, attr = getattr(self, part).partition(":")
        return getattr(importlib.import_module(module), attr)

    def cells(self, seed: int, axes: dict[str, tuple], fixed: dict) -> list[dict]:
        """Expand axis values into per-cell keyword dicts.

        An axis missing from ``axes`` takes all of its valid values.
        """
        values = []
        for axis, valid in self.axes.items():
            chosen = tuple(axes.get(axis, valid))
            if not chosen:
                raise ValueError(f"{self.name} needs >= 1 value on its {axis} axis")
            for value in chosen:
                if valid is not None and value not in valid:
                    raise ValueError(
                        f"unknown {self.name} {axis} {value!r} "
                        f"(have: {', '.join(map(str, valid))})"
                    )
            values.append(chosen)
        return [
            {**dict(zip(self.axes, combo)), "seed": seed + index, **fixed}
            for index, combo in enumerate(itertools.product(*values))
        ]


_SCENARIOS = "repro.core.scenarios:"
_T2_ARGS = {"probes": "probes", "duration": "duration", "shards": "shards"}


def _t2(name: str, label: str, scenario: str) -> CampaignSpec:
    return CampaignSpec(
        name=name, kind="centricity", label=label, shard="centricity_shard",
        scenario=_SCENARIOS + scenario, render=_SCENARIOS + "report_centricity",
        cli_args=_T2_ARGS, faults=True, predict=True, snapshot=True,
    )


#: Every campaign ``repro run`` can execute, in ``--help`` order.
CAMPAIGNS: dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        _t2("t2-uy", "uy-NS", "scenario_uy_ns"),
        _t2("t2-anicuy", "a.nic.uy-A", "scenario_anicuy_a"),
        _t2("t2-googleco", "google.co-NS", "scenario_googleco_ns"),
        CampaignSpec(
            name="t10-controlled", kind="controlled-ttl",
            scenario=_SCENARIOS + "scenario_controlled_ttl",
            render=_SCENARIOS + "report_controlled",
            cli_args={"probes": "probes", "duration": "duration"},
            run_cell=_SCENARIOS + "_run_controlled",
            axes={"label": None},
            cells_key=None,
            queries_of=lambda run: run.client_summary["queries"],
        ),
        CampaignSpec(
            name="crawl", kind="crawl", shard="crawl_shard",
            scenario="repro.crawler.crawl:crawl_parallel",
            render="repro.crawler.crawl:report_crawl",
            cli_args={"scale": "scale", "shards": "shards"},
        ),
        CampaignSpec(
            name="ddos", kind="ddos-resilience", faults=True,
            scenario=_SCENARIOS + "scenario_ddos_resilience",
            render=_SCENARIOS + "report_ddos",
            cli_args={"attack_seconds": "duration"},
            run_cell=_SCENARIOS + "_run_ddos_tier",
            axes={"serve_stale": (False, True), "ttl": None},
            cells_key="tiers",
            # Warm-up and recovery probes ride on top of the slots.
            queries_of=lambda tier: tier.slots + 2,
        ),
        CampaignSpec(
            name="prefetch", kind="prefetch-tradeoff",
            scenario=_SCENARIOS + "scenario_prefetch_tradeoff",
            render=_SCENARIOS + "report_prefetch",
            cli_args={"duration": "duration"},
            run_cell=_SCENARIOS + "_run_prefetch_cell",
            # Resolver behaviour: no prediction / on-hit prefetch / refresh-ahead.
            axes={"mode": ("off", "onhit", "ahead"), "ttl": None},
        ),
        CampaignSpec(
            name="ecs", kind="ecs-cdn",
            scenario=_SCENARIOS + "scenario_ecs_cdn",
            render=_SCENARIOS + "report_ecs",
            cli_args={"duration": "duration"},
            run_cell=_SCENARIOS + "_run_ecs_cell",
            # The resolution architectures compared.
            axes={"mode": ("isp", "public", "public-ecs"), "ttl": None},
        ),
        CampaignSpec(
            name="push", kind="push-vs-poll", faults=True,
            scenario=_SCENARIOS + "scenario_push_vs_poll",
            render=_SCENARIOS + "report_push",
            cli_args={"duration": "duration"},
            run_cell=_SCENARIOS + "_run_push_cell",
            # Fault family x update channel.
            axes={"plan": ("renumbering", "ddos"), "mode": ("poll", "push"),
                  "ttl": None},
            queries_of=operator.attrgetter("probes"),
        ),
    )
}


def run_campaign(
    spec: CampaignSpec,
    fingerprint: dict,
    kwargs: dict,
    plan: list,
    parallelism: Optional[int],
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
    initializer=None,
    initargs: tuple = (),
):
    """Run ``spec``'s shard function over ``plan`` through :mod:`repro.runner`.

    ``parallelism`` of ``None`` or 1 uses the executor's serial
    in-process path; results depend only on the shard plan, never on
    the worker count — the runner's determinism contract.  ``run_dir``
    enables checkpoint/resume guarded by ``fingerprint``; ``profile``
    dumps per-shard cProfile stats to ``f"{profile}.shard-NNNN"``;
    ``initializer``/``initargs`` run once per worker process
    (world-cache prewarm).

    Returns ``(payloads, metrics)``: the shards' decoded
    ``{"results", "queries", "metrics"}`` payloads in shard order, plus
    one merged :class:`~repro.metrics.snapshot.MetricsSnapshot` — the
    shards' sim-domain metrics folded exactly, with the executor's
    host-domain telemetry (wall times, retries, checkpoint hits)
    alongside.
    """
    from repro.metrics.registry import MetricsRegistry
    from repro.runner import campaigns
    from repro.runner.codec import decode_shard_payload
    from repro.runner.executor import ShardExecutor
    from repro.runner.merge import merge_shard_metrics
    from repro.runner.progress import ProgressTracker

    host_registry = MetricsRegistry()
    executor = ShardExecutor(
        parallelism=parallelism or 1,
        tracker=ProgressTracker(campaign=spec.label or spec.kind, callback=progress),
        metrics=host_registry,
        initializer=initializer,
        initargs=initargs,
        profile_path=profile,
    )
    if run_dir is not None:
        from repro.runner.checkpoint import CheckpointStore

        executor.checkpoint = CheckpointStore(run_dir, fingerprint)
    outcomes = executor.run(getattr(campaigns, spec.shard), plan, kwargs)
    for outcome in outcomes:
        # In place, so each columnar envelope is freed as soon as its
        # rows are rebuilt instead of doubling the campaign's peak RSS.
        outcome.value = decode_shard_payload(outcome.value)
    payloads = [outcome.value for outcome in outcomes]
    metrics = merge_shard_metrics(payloads).merge(host_registry.snapshot())
    return payloads, metrics


@dataclass
class GridRun:
    """What every grid campaign returns: the cells and how to find one.

    A cell result carries its own axis values as attributes (``cell.ttl``,
    ``cell.mode``), so lookups need nothing but the spec's ``axes``.  The
    parameters all cells shared read as attributes of the run
    (``run.subnets``, ``run.attack_seconds``).
    """

    #: The ``repro run`` name, a key of :data:`CAMPAIGNS`.
    campaign: str
    #: Keyword arguments every cell ran under, beside its axis values.
    params: dict[str, Any]
    #: Cell results in grid order (the axes' product, outermost first).
    cells: list
    #: Merged campaign metrics: the cells' sim-domain snapshots folded
    #: exactly, plus the executor's host-domain telemetry.
    metrics: Any

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails: the shared parameters.
        try:
            return self.__dict__["params"][name]
        except KeyError:
            raise AttributeError(
                f"{self.__dict__.get('campaign')} run has no parameter {name!r}"
            ) from None

    def _at(self, axes: tuple[str, ...], values: tuple) -> list:
        return [
            cell for cell in self.cells
            if tuple(getattr(cell, axis) for axis in axes) == values
        ]

    def cell(self, *values: Any) -> Any:
        """The cell at ``values`` — one per axis, in the spec's ``axes`` order."""
        axes = tuple(CAMPAIGNS[self.campaign].axes)
        found = self._at(axes, values)
        if not found:
            raise KeyError(
                f"no {self.campaign} cell at {values!r} (axes: {', '.join(axes)})"
            )
        return found[0]

    def profile(self, field: str, *outer: Any) -> dict:
        """``{innermost-axis value: cell.field}`` across the cells at
        ``outer`` (one value per remaining axis): the curve a figure plots,
        e.g. TTL -> availability."""
        *outer_axes, inner = CAMPAIGNS[self.campaign].axes
        return {
            getattr(cell, inner): getattr(cell, field)
            for cell in self._at(tuple(outer_axes), outer)
        }


def run_grid(
    name: str,
    seed: int,
    axes: dict[str, tuple],
    fixed: dict,
    parallelism: Optional[int],
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> GridRun:
    """Run a grid campaign, one shard per cell.

    Cells are independent worlds seeded from their own parameters, so
    the output is byte-identical for every worker count.
    """
    from repro.runner.campaigns import campaign_fingerprint
    from repro.runner.shard import plan_shards

    spec = CAMPAIGNS[name]
    cells = spec.cells(seed, axes, fixed)
    recorded = fixed if spec.cells_key is None else {spec.cells_key: cells}
    payloads, metrics = run_campaign(
        spec,
        campaign_fingerprint(spec.kind, seed=seed, **recorded),
        {"campaign": name, "cells": cells},
        plan_shards(len(cells), len(cells), seed),
        parallelism,
        run_dir=run_dir,
        progress=progress,
        profile=profile,
    )
    return GridRun(name, fixed, [payload["results"] for payload in payloads], metrics)
