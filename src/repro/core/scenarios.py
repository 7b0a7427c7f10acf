"""The paper's experiments, one runnable scenario per section.

Every scenario builds its world, runs the measurement, and returns the raw
datasets plus the derived statistics that the corresponding table or
figure reports.  Bench targets under ``benchmarks/`` are thin wrappers
that print these results; tests assert the calibration targets.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.analysis.cdf import ECDF
from repro.analysis.tables import Table
from repro.analysis.centricity import (
    CentricityBreakdown,
    classify_active_ttls,
    classify_capped_or_child,
    classify_passive_groups,
    sticky_vps,
)
from repro.atlas.measurement import Measurement, MeasurementSpec
from repro.atlas.population import AtlasPopulation
from repro.atlas.results import ResultSet
from repro.core.campaign import CAMPAIGNS, GridRun, run_campaign, run_grid
from repro.core.experiment import make_population
from repro.core.worlds import (
    CachetestWorld,
    NlWorld,
    build_cachetest_world,
    build_cl_world,
    build_controlled_world,
    build_ecs_cdn_world,
    build_hotset_world,
    build_nl_world,
    build_outage_world,
    build_push_world,
)
from repro.dns.message import Message, Rcode, Section
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.metrics.registry import MetricsRegistry
from repro.metrics.snapshot import MetricsSnapshot, merge_snapshots
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy

# ------------------------------------------------------- campaign plumbing
#
# Every scenario that `repro run` can execute is declared in
# :data:`repro.core.campaign.CAMPAIGNS` and runs through
# :func:`repro.core.campaign.run_campaign`; this module holds what is
# specific to each: worlds, cell runners, result types and reports.


def _normalize_fault_plan(faults) -> Optional[dict]:
    """Accept a :class:`FaultPlan` or a payload dict; return the payload.

    Payload form crosses the process boundary to shard workers and lands
    in the campaign fingerprint, so checkpoint resumes replay the exact
    schedule (a changed plan is a different campaign).
    """
    if faults is None:
        return None
    from repro.faults.plan import FaultPlan

    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_payload(faults)
    return plan.to_payload()


def _counter(snapshot: MetricsSnapshot, name: str) -> int:
    """A counter's value; 0 when nothing ever created the instrument."""
    return int(snapshot.value(name) or 0)


def _latency_percentiles(samples_ms: list[float]) -> dict[str, float]:
    """A cell's ``p50_ms``/``p95_ms``/``p99_ms`` fields; zeros for an empty run."""
    cdf = ECDF(samples_ms or [0.0])
    return dict(
        p50_ms=cdf.median, p95_ms=cdf.quantile(0.95), p99_ms=cdf.quantile(0.99)
    )


def _measurement(
    world, seed: int, probes: int, qname: str, qtype: RdataType,
    duration: float, description: str, interval: float = 600.0,
) -> tuple[AtlasPopulation, Measurement]:
    """``probes`` vantage points of ``world`` and the campaign asking each
    for ``qname`` every ``interval`` seconds."""
    population = make_population(world, probes=probes, seed=seed)
    spec = MeasurementSpec(
        qname=qname, qtype=qtype, interval=interval, duration=duration,
        description=description,
    )
    return population, Measurement(
        spec=spec, vantage_points=population.vantage_points(), seed=seed
    )


# ------------------------------------------------------------------- Table 1


@dataclass
class Table1Row:
    query: str
    server: str
    response: str
    ttl: int
    section: str
    authoritative: bool


def scenario_table1_cl(seed: int = 0) -> list[Table1Row]:
    """Reproduce Table 1: the TTLs seen resolving a.nic.cl."""
    world = build_cl_world(seed)
    client = world.topology.endpoint_in_region(Region.EU, name="table1-client")
    rows: list[Table1Row] = []

    def ask(server_name: str, qname: str, qtype: RdataType, label: str) -> None:
        address = world.address_of(server_name)
        query = Message.make_query(qname, qtype, recursion_desired=False)
        response, _ = world.network.exchange(client, address, query, now=0.0)
        for section, heading in (
            (Section.ANSWER, "Ans."),
            (Section.AUTHORITY, "Auth."),
            (Section.ADDITIONAL, "Add."),
        ):
            for record in response.records(section):
                rows.append(
                    Table1Row(
                        query=label,
                        server=server_name,
                        response=f"{record.name}/{record.rdtype.name}",
                        ttl=record.ttl,
                        section=heading,
                        authoritative=response.flags.aa,
                    )
                )

    ask("a.root-servers.net", "cl.", RdataType.NS, ".cl / NS")
    ask("a.nic.cl", "cl.", RdataType.NS, ".cl / NS")
    ask("a.nic.cl", "a.nic.cl.", RdataType.A, "a.nic.cl / A")
    return rows


# --------------------------------------------------------- §3.2/§3.3 (T2, F1, F2)


@dataclass
class CentricityRun:
    """One active centricity measurement campaign."""

    name: str
    #: ``repro run`` table title.
    title: str
    parent_ttl: int
    child_ttl: int
    results: ResultSet
    breakdown: CentricityBreakdown
    summary: dict[str, int]
    #: Merged campaign metrics: the shards' sim-domain snapshots folded
    #: exactly, plus the executor's host-domain telemetry.
    metrics: Optional[MetricsSnapshot] = None

    def ttl_cdf(self) -> ECDF:
        return ECDF(self.results.ttls())


class _CentricityTarget(NamedTuple):
    """Everything one Table 2 campaign fixes.  Its display name is the
    registry entry's ``label`` (the progress ticker shows it too)."""

    #: World builder, by :func:`repro.runner.campaigns.centricity_shard` name.
    builder: str
    qname: str
    qtype: RdataType
    parent_ttl: int
    child_ttl: int
    #: Classifier of the observed TTLs.
    classify: Callable[..., CentricityBreakdown]
    #: ``MeasurementSpec.description``; may name ``{child_ttl}``.
    description: str
    #: ``repro run`` table title.
    title: str
    #: The public scenario's default campaign length, seconds.
    duration: float
    #: The public scenario's default ``child_ns_ttl`` (``None``: the
    #: builder's own); a set value is part of the campaign fingerprint.
    child_ns_ttl: Optional[int] = None


_CENTRICITY_TARGETS = {
    "t2-uy": _CentricityTarget(
        "uy", "uy.", RdataType.NS, 172800, 300, classify_active_ttls,
        ".uy-NS (child TTL {child_ttl})", "T2: .uy-NS centricity campaign",
        7200.0, child_ns_ttl=300,
    ),
    "t2-anicuy": _CentricityTarget(
        "uy", "a.nic.uy.", RdataType.A, 172800, 120, classify_active_ttls,
        "a.nic.uy-A", "T2: a.nic.uy-A centricity campaign", 10800.0,
    ),
    "t2-googleco": _CentricityTarget(
        "googleco", "google.co.", RdataType.NS, 900, 345600,
        functools.partial(classify_capped_or_child, cap=21599),
        "google.co-NS", "T2: google.co-NS centricity campaign", 3600.0,
    ),
}


def _run_centricity(
    campaign: str,
    seed: int = 0,
    probes: int = 300,
    *,
    duration: float,
    child_ns_ttl: Optional[int],
    interval: float = 600.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    faults=None,
    predict: bool = False,
    profile: Optional[str] = None,
    snapshot_every: int = 0,
) -> CentricityRun:
    """Run registered centricity ``campaign`` over its probes and classify.

    :func:`scenario_uy_ns`, :func:`scenario_anicuy_a` and
    :func:`scenario_googleco_ns` are this function bound to one
    :data:`_CENTRICITY_TARGETS` row and its defaults; each carries its
    own docstring.

    With ``parallelism`` set, probes are sharded deterministically and
    the shards execute on that many workers (1 = the serial in-process
    fallback); the merged :class:`ResultSet` is identical for every
    worker count.  Unset, the campaign is one whole-population shard
    seeded with ``seed`` itself — the plan the paper's figures are
    recorded under.

    ``run_dir`` enables checkpoint/resume.  ``snapshot_every`` (with
    ``run_dir``) makes each shard checkpoint its world-level state every
    that-many queries, so a killed run resumes mid-shard (see
    docs/performance.md).  Snapshot cadence is deliberately *not* part
    of the fingerprint — it changes when state hits disk, never the
    results.  ``faults`` (a :class:`FaultPlan` or its payload) schedules
    failures against the campaign's virtual clock — see
    docs/resilience.md.  ``predict`` arms every resolver with the
    default predictive policy (refresh-ahead + RFC 8767) — see
    docs/prediction.md.  ``profile`` writes per-shard cProfile stats.

    ``child_ns_ttl`` rebuilds the world with that child NS TTL (the
    operator's change behind the paper's uy-NS-new column); ``interval``
    is the seconds between a vantage point's queries.  Only t2-uy takes
    either: any other campaign raises :class:`TypeError` on a set
    ``child_ns_ttl`` or an ``interval`` other than 600 s.
    """
    from repro.runner.campaigns import campaign_fingerprint
    from repro.runner.merge import merge_result_sets
    from repro.runner.shard import DEFAULT_SHARDS, Shard, plan_shards
    from repro.runner.worldcache import prewarm

    spec = CAMPAIGNS[campaign]
    target = _CENTRICITY_TARGETS[campaign]
    if target.child_ns_ttl is None and (child_ns_ttl, interval) != (None, 600.0):
        raise TypeError(f"{campaign} takes no child_ns_ttl or interval")
    world_kwargs = {} if child_ns_ttl is None else {"child_ns_ttl": child_ns_ttl}
    child_ttl = target.child_ttl if child_ns_ttl is None else child_ns_ttl
    kwargs = {
        "builder": target.builder,
        "world_kwargs": world_kwargs,
        "spec_kwargs": dict(
            qname=target.qname,
            interval=interval,
            duration=duration,
            description=target.description.format(child_ttl=child_ttl),
        ),
        "qtype_name": target.qtype.name,
        "fault_plan": _normalize_fault_plan(faults),
    }
    if predict:
        # Only present when armed, so run dirs checkpointed before the
        # predict layer existed still fingerprint-match their campaigns.
        kwargs["predict"] = True
    if parallelism is None:
        num_shards = None
        plan = [Shard(index=0, seed=seed, start=0, count=probes)]
    else:
        num_shards = shards if shards is not None else DEFAULT_SHARDS
        plan = plan_shards(probes, num_shards, seed)
    fingerprint = campaign_fingerprint(
        spec.kind,
        campaign=spec.label,
        seed=seed,
        probes=probes,
        shards=num_shards,
        **kwargs,
    )
    if run_dir is not None and snapshot_every > 0:
        kwargs["snapshot"] = {
            "run_dir": str(run_dir),
            "fingerprint": fingerprint,
            "every": int(snapshot_every),
        }
    payloads, metrics = run_campaign(
        spec, fingerprint, kwargs, plan, parallelism, run_dir, progress, profile,
        initializer=prewarm, initargs=(target.builder, world_kwargs),
    )
    results = merge_result_sets([payload["results"] for payload in payloads])
    valid = results.valid()
    return CentricityRun(
        name=spec.label if child_ttl == target.child_ttl else f"{spec.label}-new",
        title=target.title,
        parent_ttl=target.parent_ttl,
        child_ttl=child_ttl,
        results=valid,
        breakdown=target.classify(
            valid.ttls(), parent_ttl=target.parent_ttl, child_ttl=child_ttl
        ),
        summary=results.summary(),
        metrics=metrics,
    )


scenario_uy_ns, scenario_anicuy_a, scenario_googleco_ns = (
    functools.partial(
        _run_centricity, campaign, duration=target.duration,
        child_ns_ttl=target.child_ns_ttl,
    )
    for campaign, target in _CENTRICITY_TARGETS.items()
)
scenario_uy_ns.__doc__ = """The .uy-NS campaign (Table 2 col 1; Figure 1):
parent 172800 s, child 300 s, every 10 min for 2 h."""
scenario_anicuy_a.__doc__ = """The a.nic.uy-A campaign (Table 2 col 2; Figure 1):
parent glue 172800 s, child A 120 s, every 10 min for 3 h."""
scenario_googleco_ns.__doc__ = """The google.co-NS campaign (Table 2 col 3; Figure 2):
parent 900 s, child 345600 s, every 10 min for 1 h."""


def report_centricity(run: CentricityRun):
    table = Table(["metric", "value"], title=run.title)
    for key in ("probes", "vps", "queries", "responses_valid",
                "responses_discarded", "resolvers"):
        table.add_row(key, run.summary[key])
    b = run.breakdown
    table.add_row("child-centric", f"{b.child_fraction * 100:.1f}%")
    table.add_row("parent-centric", f"{b.parent_fraction * 100:.1f}%")
    return table.render(), run.metrics


# ------------------------------------------------------------ §3.4 (F3, F4)


@dataclass
class NlPassiveRun:
    world: NlWorld
    groups: dict[tuple[str, Name], list[float]]
    breakdown: object
    min_interarrivals: list[float]


def scenario_nl_passive(
    seed: int = 0,
    resolvers: int = 200,
    duration: float = 172800.0,
    domain_count: int = 300,
    median_rate_per_hour: float = 0.025,
    rate_sigma: float = 2.2,
) -> NlPassiveRun:
    """The passive .nl study (§3.4): a resolver fleet drives two days of
    client workload; the monitored authoritatives' logs are grouped by
    (resolver, NS-name) exactly as Figures 3 and 4 require."""
    nl = build_nl_world(seed, domain_count=domain_count)
    world = nl.world
    rng = random.Random(seed ^ 0x9A55)

    fleet = [
        world.resolver(
            world.topology.create_endpoint(name=f"nl-res-{index}"),
            ResolverPolicy.child_centric(),
        )
        for index in range(resolvers)
    ]

    # Heterogeneous client demand: a heavy-tailed lognormal over per-
    # resolver rates — most resolvers rarely need .nl (they produce the
    # paper's 48 % single-query groups), a few are very busy (they produce
    # the multi-query mass and the hourly re-fetch bumps of Figure 4).
    events: list[tuple[float, int, str]] = []
    for index in range(resolvers):
        rate = rng.lognormvariate(math.log(median_rate_per_hour), rate_sigma) / 3600.0
        t = rng.expovariate(rate) if rate > 0 else duration
        while t < duration:
            domain = f"www.domain{rng.randrange(domain_count)}.nl."
            events.append((t, index, domain))
            t += rng.expovariate(rate)
    events.sort(key=lambda event: event[0])

    for timestamp, index, qname in events:
        fleet[index].resolve(qname, RdataType.A, timestamp)

    ns_names = {Name(f"{name}.") for name in nl.server_names}
    groups = {
        key: stamps
        for key, stamps in nl.monitored_log_groups().items()
        if key[1] in ns_names
    }
    from repro.analysis.interarrival import min_interarrival_per_group

    return NlPassiveRun(
        world=nl,
        groups=groups,
        breakdown=classify_passive_groups(groups),
        min_interarrivals=min_interarrival_per_group(groups),
    )


# ----------------------------------------------------- §4 (T3, T4, F6, F7, F8)


@dataclass
class BailiwickRun:
    world: CachetestWorld
    results: ResultSet
    summary: dict[str, int]
    sticky_vp_ids: set[str]
    switched_by_round: dict[int, float]  # round -> fraction answered by new

    @property
    def old_label(self) -> str:
        return self.world.old_answer


def scenario_bailiwick(
    seed: int = 0,
    in_bailiwick: bool = True,
    probes: int = 300,
    duration: float = 14400.0,
    interval: float = 600.0,
    renumber_at: float = 540.0,
) -> BailiwickRun:
    """The §4 renumbering experiment (in- or out-of-bailiwick).

    Queries AAAA PROBEID.sub.cachetest.net every 10 minutes for 4 hours
    from every VP; the server is renumbered at t=9 min (paper §4.2).
    """
    ct = build_cachetest_world(seed, in_bailiwick=in_bailiwick)
    _, measurement = _measurement(
        ct.world, seed, probes, "PROBEID.sub.cachetest.net.", RdataType.AAAA,
        duration, f"{'in' if in_bailiwick else 'out-of'}-bailiwick renumbering",
        interval,
    )
    measurement.schedule(renumber_at, ct.renumber, label="renumber")
    results = measurement.run()
    valid = results.valid()

    per_vp: dict[str, list[tuple[float, tuple[str, ...]]]] = {}
    for result in valid:
        per_vp.setdefault(result.vp_id, []).append((result.timestamp, result.answers))
    sticky = sticky_vps(per_vp, ct.old_answer, first_round_end=interval)

    switched: dict[int, float] = {}
    for round_index in range(measurement.spec.rounds()):
        round_results = valid.for_round(round_index)
        if len(round_results) == 0:
            continue
        new_count = sum(
            1 for result in round_results if ct.new_answer in result.answers
        )
        switched[round_index] = new_count / len(round_results)

    return BailiwickRun(
        world=ct,
        results=valid,
        summary=results.summary(),
        sticky_vp_ids=sticky,
        switched_by_round=switched,
    )


def scenario_matched_sticky(
    seed: int = 0, probes: int = 300
) -> tuple[BailiwickRun, BailiwickRun, list[float]]:
    """Figure 8: VPs sticky in the out-of-bailiwick run, re-observed in the
    in-bailiwick run; returns their new-server response ratios there."""
    out_run = scenario_bailiwick(seed, in_bailiwick=False, probes=probes)
    in_run = scenario_bailiwick(seed, in_bailiwick=True, probes=probes)
    in_per_vp: dict[str, list] = {}
    for result in in_run.results:
        in_per_vp.setdefault(result.vp_id, []).append(result)
    ratios: list[float] = []
    for vp_id in out_run.sticky_vp_ids:
        rows = in_per_vp.get(vp_id)
        if not rows:
            continue
        new = sum(1 for r in rows if in_run.world.new_answer in r.answers)
        ratios.append(new / len(rows))
    return out_run, in_run, ratios


@dataclass
class OpenDnsCaseStudy:
    """§4.4's confirmation probe of a parent-centric public resolver."""

    responses: int
    old_answers: int
    new_answers: int
    child_ns_queries_seen: int

    @property
    def old_fraction(self) -> float:
        return self.old_answers / self.responses if self.responses else 0.0


def scenario_opendns_case_study(
    seed: int = 0,
    interval: float = 300.0,
    duration: float = 48600.0,
) -> OpenDnsCaseStudy:
    """The §4.4 single-VP probe of an OpenDNS-like resolver.

    The paper queried one OpenDNS resolver every 300 s after renumbering
    the out-of-bailiwick server and found answers from the *old* server
    long past every child TTL — because the resolver trusted the .com
    zone's 2-day NS/glue and never asked the child for NS records.
    """
    ct = build_cachetest_world(seed, in_bailiwick=False)
    world = ct.world
    resolver = world.resolver(
        world.topology.endpoint_in_region(Region.EU, "opendns-like"),
        ResolverPolicy.parent_centric(),
    )
    # Warm the resolver, renumber at t=9min, then probe every 300 s.
    old = new = responses = 0
    renumbered = False
    t = 0.0
    while t < duration:
        if not renumbered and t >= 540.0:
            ct.renumber()
            renumbered = True
        out = resolver.resolve("probe.sub.cachetest.net.", RdataType.AAAA, now=t)
        if out.rcode.name == "NOERROR" and out.answers:
            responses += 1
            answer = str(out.answers[-1].rdatas[0])
            if answer == ct.old_answer:
                old += 1
            elif answer == ct.new_answer:
                new += 1
        t += interval
    # "our authoritative servers have received no queries for NS
    # zurrundedu.com" — verify the same from our logs.
    ns_queries = 0
    for server in (ct.old_server, ct.new_server):
        log = server.query_log
        assert log is not None
        ns_queries += sum(
            1
            for entry in log
            if entry.qtype == RdataType.NS and entry.qname == Name("zurrundedu.com.")
        )
    return OpenDnsCaseStudy(
        responses=responses,
        old_answers=old,
        new_answers=new,
        child_ns_queries_seen=ns_queries,
    )


def scenario_zurrundedu_offline(
    seed: int = 0, probes: int = 200
) -> tuple[ResultSet, AtlasPopulation]:
    """§4.4: child servers down; only parent-centric resolvers answer."""
    ct = build_cachetest_world(seed, in_bailiwick=False)
    population, measurement = _measurement(
        ct.world, seed, probes, "sub.cachetest.net.", RdataType.NS, 1200.0,
        "child authoritatives offline",
    )
    ct.take_child_offline()
    return measurement.run(), population


# ----------------------------------------------------------- §5.3 (Figure 10)


@dataclass
class UyNaturalRun:
    before: ResultSet
    after: ResultSet

    def rtts_by_region(self, which: str) -> dict:
        dataset = self.before if which == "before" else self.after
        return {
            region: [r.rtt * 1000.0 for r in rows]
            for region, rows in dataset.by_region().items()
        }


def scenario_uy_natural(
    seed: int = 0,
    probes: int = 300,
    duration: float = 7200.0,
    parallelism: Optional[int] = None,
    shards: Optional[int] = None,
) -> UyNaturalRun:
    """Figure 10: .uy NS query RTTs with TTL 300 s vs 86400 s.

    Run as two independent campaigns (before/after the operator's change),
    as the paper's uy-NS and uy-NS-new measurements were.
    """
    before = scenario_uy_ns(
        seed, probes=probes, child_ns_ttl=300, duration=duration,
        parallelism=parallelism, shards=shards,
    )
    after = scenario_uy_ns(
        seed, probes=probes, child_ns_ttl=86400, duration=duration,
        parallelism=parallelism, shards=shards,
    )
    return UyNaturalRun(before=before.results, after=after.results)


# ------------------------------------------------------- §6.2 (Table 10, F11)


@dataclass
class ControlledRun:
    label: str
    results: ResultSet
    auth_queries: int
    auth_unique_ips: int
    client_summary: dict[str, int]
    #: This run's own sim-domain metrics snapshot.
    metrics: Optional[MetricsSnapshot] = None

    def rtts_ms(self) -> list[float]:
        return self.results.rtts_ms()


#: The five §6.2 experiments, in seed-offset order:
#: label -> (qname, zone, server).
_CONTROLLED_RUNS: dict[str, tuple[str, str, str]] = {
    "TTL60-u": ("PROBEID.ttl60.mapache-de-madrid.co.",
                "zone_unicast_60", "unicast_server"),
    "TTL86400-u": ("PROBEID.ttl86400.mapache-de-madrid.co.",
                   "zone_unicast_86400", "unicast_server"),
    "TTL60-s": ("1.ttl60.mapache-de-madrid.co.",
                "zone_unicast_60", "unicast_server"),
    "TTL86400-s": ("2.ttl86400.mapache-de-madrid.co.",
                   "zone_unicast_86400", "unicast_server"),
    "TTL60-anycast": ("4.anycast.mapache-de-madrid.co.",
                      "zone_anycast", "anycast"),
}


def _run_controlled(
    *,
    label: str,
    seed: int,
    probes: int,
    duration: float,
    metrics: MetricsRegistry,
) -> ControlledRun:
    qname, zone_attr, server_attr = _CONTROLLED_RUNS[label]
    world = build_controlled_world(seed)
    world.world.network.attach_metrics(metrics)
    _, measurement = _measurement(
        world.world, seed, probes, qname, RdataType.AAAA, duration, label
    )
    results = measurement.run()
    valid = results.valid()
    server = getattr(world, server_attr)
    log = server.query_log
    assert log is not None
    zone = getattr(world, zone_attr)
    relevant = log.filtered(lambda e: e.qname.is_subdomain_of(zone.origin))
    return ControlledRun(
        label=label,
        results=valid,
        auth_queries=len(relevant),
        auth_unique_ips=len(relevant.unique_clients()),
        client_summary=results.summary(),
        metrics=metrics.snapshot(),
    )


def scenario_controlled_ttl(
    seed: int = 0,
    probes: int = 300,
    duration: float = 3600.0,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> dict[str, ControlledRun]:
    """Table 10 / Figure 11: the five controlled experiments.

    Unique-QNAME runs use PROBEID names; shared runs a single name; the
    anycast run uses the 45-site cluster.  Each runs in a fresh world,
    as one shard through :mod:`repro.runner` — so (unlike the
    probe-sharded centricity campaigns) the output is identical for
    every ``parallelism``, unset included.
    """
    axes = {"label": tuple(_CONTROLLED_RUNS)}
    shared = {"probes": probes, "duration": duration}
    grid = run_grid(
        "t10-controlled", seed, axes, shared, parallelism, run_dir, progress, profile
    )
    return {run.label: run for run in grid.cells}


def report_controlled(runs: dict[str, ControlledRun]):
    table = Table(
        ["experiment", "queries", "auth queries", "median RTT"],
        title="Table 10: controlled TTL experiments",
    )
    for label, run in runs.items():
        cdf = ECDF(run.rtts_ms())
        table.add_row(
            label, run.client_summary["queries"], run.auth_queries,
            f"{cdf.median:.1f} ms",
        )
    return table.render(), merge_snapshots(run.metrics for run in runs.values())


# ------------------------------------------------------------------- §6.1


@dataclass(frozen=True)
class DdosTierResult:
    """One (TTL, serve-stale) cell of the resilience matrix."""

    ttl: int
    serve_stale: bool
    seed: int
    #: Probe slots during the attack window.
    slots: int
    #: Slots answered with records (fresh or stale).
    answered: int
    #: Slots answered from expired cache (serve-stale engagements).
    stale_answers: int
    #: Whether the post-attack recovery probe got a fresh answer.
    recovered: bool

    @property
    def availability(self) -> float:
        return self.answered / self.slots if self.slots else 0.0

    @property
    def served_stale_fraction(self) -> float:
        return self.stale_answers / self.slots if self.slots else 0.0


def _run_ddos_tier(
    *,
    ttl: int,
    serve_stale: bool,
    seed: int,
    attack_seconds: float,
    probe_interval: float,
    attack_start: float,
    fault_plan: Optional[dict] = None,
    metrics: MetricsRegistry,
) -> DdosTierResult:
    """Probe one warmed resolver through an authoritative outage.

    The outage is injected through :mod:`repro.faults` (never through
    ``Network.down``), so every fault event is observable in the
    metrics stream and extra faults can ride along via ``fault_plan``.
    """
    from repro.faults.injector import attach_fault_plan
    from repro.faults.plan import FaultSpec

    outage = build_outage_world(ttl, seed)
    world = outage.world
    world.network.attach_metrics(metrics)
    attack = FaultSpec(
        kind="server_outage",
        start=attack_start,
        duration=attack_seconds,
        target=outage.target_address,
    )
    attach_fault_plan(world.network, [attack], "ddos", seed, fault_plan)

    resolver = world.resolver(
        world.topology.endpoint_in_region(Region.EU, "res"),
        ResolverPolicy.child_centric().with_(serve_stale=serve_stale),
    )
    # Warm the cache just before the attack begins.
    warm = resolver.resolve("www.shop.example.", RdataType.A, now=0.0)
    assert warm.rcode == Rcode.NOERROR and warm.answers

    answered = stale = 0
    slots = int(attack_seconds // probe_interval)
    for k in range(1, slots + 1):
        out = resolver.resolve("www.shop.example.", RdataType.A, now=k * probe_interval)
        if out.rcode == Rcode.NOERROR and out.answers:
            answered += 1
            stale += out.served_stale
    # One probe after the attack lifts: the tree answers again, and the
    # delivery closes the fault's recovery clock in the metrics stream.
    after = resolver.resolve(
        "www.shop.example.", RdataType.A,
        now=attack_start + attack_seconds + probe_interval,
    )
    recovered = bool(after.rcode == Rcode.NOERROR and after.answers)
    return DdosTierResult(
        ttl=ttl,
        serve_stale=serve_stale,
        seed=seed,
        slots=slots,
        answered=answered,
        stale_answers=stale,
        recovered=recovered,
    )


def scenario_ddos_resilience(
    seed: int = 0,
    ttls: tuple = (60, 300, 1800, 3600, 86400),
    attack_seconds: float = 3600.0,
    probe_interval: float = 300.0,
    attack_start: Optional[float] = None,
    faults=None,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> GridRun:
    """§6.1: availability across TTL tiers during a 1 h authoritative DDoS.

    Runs a (serve-stale × TTL) matrix of independent tiers: each warms a
    child-centric resolver, takes the zone's only authoritative down via
    a :class:`FaultPlan`, and probes every ``probe_interval``.  The tiers
    run as one shard each through :mod:`repro.runner` — byte-identical
    for any ``parallelism``.  ``faults`` schedules *additional* failures
    on top of the attack in every tier.

    The paper's claim — "longer caching is more robust to DDoS attacks",
    sharpened by Moura et al. to "TTLs must be longer than the attack" —
    falls out of the tier matrix (``run.profile("availability", False)``):
    availability climbs from 0 to 1 as the TTL crosses the attack
    duration, and serve-stale rescues every tier.
    """
    if attack_start is None:
        # Half a slot before the first probe: every probe lands mid-attack.
        attack_start = probe_interval / 2
    fixed = {
        "attack_seconds": attack_seconds,
        "probe_interval": probe_interval,
        "attack_start": attack_start,
        "fault_plan": _normalize_fault_plan(faults),
    }
    return run_grid(
        "ddos", seed, {"ttl": ttls}, fixed, parallelism, run_dir, progress, profile
    )


def report_ddos(run: GridRun):
    table = Table(
        ["TTL (s)", "availability", "serve-stale", "stale fraction"],
        title=f"§6.1 resilience: {run.attack_seconds:.0f}s authoritative outage",
    )
    for ttl in sorted({tier.ttl for tier in run.cells}):
        plain = run.cell(False, ttl)
        rescued = run.cell(True, ttl)
        table.add_row(
            ttl,
            f"{plain.availability * 100:.0f}%",
            f"{rescued.availability * 100:.0f}%",
            f"{rescued.served_stale_fraction * 100:.0f}%",
        )
    return table.render(), run.metrics


# ----------------------------------------------- prefetch/refresh-ahead figure


@dataclass(frozen=True)
class PrefetchCell:
    """One (mode, TTL) cell of the prefetch trade-off matrix."""

    mode: str
    ttl: int
    seed: int
    #: Client queries driven through the resolver.
    queries: int
    #: Queries answered straight from live cache.
    cache_hits: int
    #: Queries the child authoritative answered (the volume axis).
    auth_queries: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Scheduler-executed refreshes + revalidations (0 for mode "off").
    refreshes: int
    #: RFC 8767 stale answers (mode "ahead" only).
    stale_answered: int

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0


def _run_prefetch_cell(
    *,
    mode: str,
    ttl: int,
    seed: int,
    names: int,
    rate_qps: float,
    duration: float,
    metrics: MetricsRegistry,
) -> PrefetchCell:
    """Drive one resolver through a Zipf workload against one TTL tier."""
    from repro.loadgen.arrivals import poisson_schedule
    from repro.workload import ZipfSampler

    hotset = build_hotset_world(ttl, seed, names=names)
    world = hotset.world
    world.network.attach_metrics(metrics)
    policy = {
        "off": ResolverPolicy.child_centric,
        "onhit": ResolverPolicy.prefetching,
        "ahead": ResolverPolicy.predictive,
    }[mode]()
    resolver = world.resolver(
        world.topology.endpoint_in_region(Region.EU, "prefetch-res"), policy
    )
    rng = random.Random(seed ^ 0x50F7)
    sampler = ZipfSampler(population=names, exponent=1.0)
    latencies: list[float] = []
    hits = 0
    for at in poisson_schedule(rate_qps, duration, rng):
        qname = hotset.qnames[sampler.rank(rng)]
        out = resolver.resolve(qname, RdataType.A, now=at)
        latencies.append(out.elapsed * 1000.0)
        hits += out.cache_hit
    snapshot = metrics.snapshot()
    return PrefetchCell(
        mode=mode,
        ttl=ttl,
        seed=seed,
        queries=len(latencies),
        cache_hits=hits,
        auth_queries=hotset.auth_queries,
        **_latency_percentiles(latencies),
        refreshes=_counter(snapshot, "predict.refreshes")
        + _counter(snapshot, "predict.revalidations"),
        stale_answered=_counter(snapshot, "predict.stale_answered"),
    )


def scenario_prefetch_tradeoff(
    seed: int = 0,
    ttls: tuple = (60, 300, 3600, 86400),
    modes: tuple = CAMPAIGNS["prefetch"].axes["mode"],
    names: int = 16,
    rate_qps: float = 2.0,
    duration: float = 1800.0,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> GridRun:
    """Authoritative volume and client p99 vs TTL, with prediction
    off / on-hit prefetch / refresh-ahead.

    Runs a (mode × TTL) matrix of independent cells, each a fresh
    :func:`build_hotset_world` plus one resolver under a seeded Zipf
    workload.  The cells run as one shard each through
    :mod:`repro.runner` — byte-identical for any ``parallelism``,
    predict machinery included.

    Pappas et al.'s renewal idea, quantified: at short TTLs refresh-ahead
    buys the client hit-latency p99 at the price of budgeted refresh
    traffic; at day-long TTLs prediction buys (and costs) nothing.
    """
    axes = {"mode": modes, "ttl": ttls}
    shared = {"names": names, "rate_qps": rate_qps, "duration": duration}
    return run_grid(
        "prefetch", seed, axes, shared, parallelism, run_dir, progress, profile
    )


def report_prefetch(run: GridRun):
    table = Table(
        ["TTL (s)", "mode", "queries", "hit rate", "auth queries",
         "p99 (ms)", "refreshes", "stale"],
        title="Prefetch trade-off: client p99 and authoritative volume vs TTL",
    )
    for cell in run.cells:
        table.add_row(
            cell.ttl, cell.mode, cell.queries,
            f"{cell.hit_rate * 100:.1f}%", cell.auth_queries,
            f"{cell.p99_ms:.2f}", cell.refreshes, cell.stale_answered,
        )
    return table.render(), run.metrics


# ------------------------------------------------------ ECS + CDN interplay


@dataclass(frozen=True)
class EcsCell:
    """One (mode, TTL) cell of the ECS/CDN matrix."""

    mode: str
    ttl: int
    seed: int
    #: Client queries driven through the resolvers.
    queries: int
    #: Queries answered from resolver cache (global or subnet-scoped).
    cache_hits: int
    #: Queries the CDN authoritative answered (cache-miss volume).
    auth_queries: int
    #: Client-to-content latency: DNS resolution plus one RTT to the
    #: answered site — the end-to-end number the CDN papers compare.
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Fraction of queries answered with the client's region-local site.
    local_site_rate: float
    #: Per-site answer tallies, sorted by site name.
    site_counts: tuple[tuple[str, int], ...]
    #: Subnet-scoped cache entries at end of run (the cardinality axis).
    scoped_entries: int
    #: Scoped hits served to a different covered subnet than the one
    #: that fetched the answer.
    scope_merges: int

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0


def _run_ecs_cell(
    *,
    mode: str,
    ttl: int,
    seed: int,
    subnets: int,
    rate_qps: float,
    duration: float,
    metrics: MetricsRegistry,
) -> EcsCell:
    """Drive one resolution architecture through the CDN workload."""
    from repro.core.worlds import _ECS_SITE_OF_REGION
    from repro.loadgen.arrivals import poisson_schedule

    testbed = build_ecs_cdn_world(ttl, seed, subnets=subnets)
    world = testbed.world
    world.network.attach_metrics(metrics)
    testbed.server.attach_metrics(metrics)

    policy = ResolverPolicy.child_centric()
    if mode == "public-ecs":
        policy = policy.with_(ecs=True)
    if mode == "isp":
        resolvers = {
            region: world.resolver(endpoint, policy)
            for region, endpoint in testbed.isp_endpoints.items()
        }
        resolver_of = lambda client: resolvers[client.region]  # noqa: E731
    else:
        resolvers = {
            egress: world.resolver(endpoint, policy)
            for egress, endpoint in testbed.egress_endpoints.items()
        }
        resolver_of = lambda client: resolvers[client.egress]  # noqa: E731

    site_of_address = {site.address: name for name, site in testbed.sites.items()}
    local_site = {
        client.index: _ECS_SITE_OF_REGION[client.region]
        for client in testbed.clients
    }
    rng = random.Random(seed ^ 0xEC5D)
    clients = testbed.clients
    latencies: list[float] = []
    hits = 0
    local_answers = 0
    for at in poisson_schedule(rate_qps, duration, rng):
        client = clients[rng.randrange(len(clients))]
        resolver = resolver_of(client)
        out = resolver.resolve(
            testbed.content_name,
            RdataType.A,
            now=at,
            client_subnet=client.subnet if mode == "public-ecs" else None,
        )
        total_ms = out.elapsed * 1000.0
        if out.answers:
            rdata = out.answers[-1].rdatas[0]
            site_name = site_of_address.get(getattr(rdata, "address", None))
            if site_name is not None:
                total_ms += (
                    world.network.latency.rtt(
                        client.endpoint, testbed.site_endpoints[site_name], rng
                    )
                    * 1000.0
                )
                if site_name == local_site[client.index]:
                    local_answers += 1
        latencies.append(total_ms)
        hits += out.cache_hit
    return EcsCell(
        mode=mode,
        ttl=ttl,
        seed=seed,
        queries=len(latencies),
        cache_hits=hits,
        auth_queries=testbed.auth_queries,
        **_latency_percentiles(latencies),
        local_site_rate=local_answers / len(latencies) if latencies else 0.0,
        site_counts=tuple(sorted(testbed.server.site_answers.items())),
        scoped_entries=sum(
            resolver.cache.ecs_scoped_len() for resolver in resolvers.values()
        ),
        scope_merges=_counter(metrics.snapshot(), "ecs.scope_merges"),
    )


def scenario_ecs_cdn(
    seed: int = 0,
    ttls: tuple = (60, 300, 3600),
    modes: tuple = CAMPAIGNS["ecs"].axes["mode"],
    subnets: int = 12,
    rate_qps: float = 2.0,
    duration: float = 1800.0,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> GridRun:
    """Client-to-content latency and cache hit rate across TTLs for ISP
    resolvers vs a public resolver without and with ECS.

    Runs a (mode × TTL) matrix of independent cells, each a fresh
    :func:`build_ecs_cdn_world` plus its resolver set under a seeded
    workload.  The cells run as one shard each through
    :mod:`repro.runner` — byte-identical for any ``parallelism``,
    scoped-cache metrics included.

    The expected shape: "isp" and "public-ecs" route clients to nearby
    sites (low p50), "public" sends every catchment to the egress's site
    (high tail for far clients); "public-ecs" pays for the repair with
    subnet-scoped cache cardinality and a lower hit rate at equal TTL.
    """
    axes = {"mode": modes, "ttl": ttls}
    shared = {"subnets": subnets, "rate_qps": rate_qps, "duration": duration}
    return run_grid("ecs", seed, axes, shared, parallelism, run_dir, progress, profile)


def report_ecs(run: GridRun):
    table = Table(
        ["TTL (s)", "mode", "queries", "hit rate", "auth queries",
         "p50 (ms)", "p95 (ms)", "local site", "scoped"],
        title="ECS + CDN: client-to-content latency and hit rate vs TTL",
    )
    for cell in run.cells:
        table.add_row(
            cell.ttl, cell.mode, cell.queries,
            f"{cell.hit_rate * 100:.1f}%", cell.auth_queries,
            f"{cell.p50_ms:.2f}", f"{cell.p95_ms:.2f}",
            f"{cell.local_site_rate * 100:.0f}%", cell.scoped_entries,
        )
    return table.render(), run.metrics


# ------------------------------------------------------- push vs TTL polling


@dataclass(frozen=True)
class PushCell:
    """One (plan, mode, TTL) cell of the push-vs-poll matrix."""

    plan: str
    mode: str
    ttl: int
    seed: int
    seats: int
    #: Probes driven through the resolver seats (warm probes included).
    probes: int
    #: Probes answered NOERROR with an address.
    answered: int
    #: Answered probes carrying an outdated address (the record had
    #: changed but the cached copy had not caught up).
    stale_probes: int
    #: Full DNS queries the child authoritative answered — cache-miss
    #: refetches plus (in push mode) SUBSCRIBE exchanges.  Keepalives are
    #: transport frames and deliberately excluded, as for a real DSO
    #: session.
    auth_queries: int
    #: NOTIFY frames enqueued / coalesced away / sessions reset by a
    #: doomed NOTIFY (push mode; all zero under polling).
    notifications: int
    coalesced: int
    session_resets: int
    #: Client-side session reconnects (push mode).
    reconnects: int
    #: Mean probe-observed staleness window, seconds: per change and
    #: seat, how long after the change the seat's answers kept showing the
    #: old address (censored at the next change or end of run).
    mean_staleness_s: float

    @property
    def answered_rate(self) -> float:
        return self.answered / self.probes if self.probes else 0.0

    @property
    def stale_rate(self) -> float:
        return self.stale_probes / self.answered if self.answered else 0.0


def _push_staleness_lags(
    change_log: list[tuple[float, str]],
    observations: list[list[tuple[float, Optional[str]]]],
    end: float,
) -> list[float]:
    """Per (change, seat) staleness windows from the probe record.

    For each change, each seat's lag is the time from the change until
    the seat first observed the new address — censored at the next
    change (after which the old target is unobservable) or end of run.
    Identical bookkeeping for both modes: the probe schedule is the
    measurement instrument, the update channel is the treatment.
    """
    lags: list[float] = []
    for index, (changed_at, address) in enumerate(change_log):
        horizon = (
            change_log[index + 1][0] if index + 1 < len(change_log) else end
        )
        for seat_obs in observations:
            lag = horizon - changed_at
            for at, seen in seat_obs:
                if at < changed_at or seen is None:
                    continue
                if at >= horizon:
                    break
                if seen == address:
                    lag = at - changed_at
                    break
            lags.append(lag)
    return lags


def _run_push_cell(
    *,
    plan: str,
    mode: str,
    ttl: int,
    seed: int,
    seats: int,
    changes: int,
    probe_interval: float,
    duration: float,
    fault_plan: Optional[dict] = None,
    metrics: MetricsRegistry,
) -> PushCell:
    """Probe one update channel through one fault family at one TTL."""
    from repro.faults.injector import attach_fault_plan
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.push import attach_publisher

    testbed = build_push_world(ttl, seed)
    world = testbed.world
    world.network.attach_metrics(metrics)

    change_times = [
        round(duration * (index + 1) / (changes + 1), 3)
        for index in range(changes)
    ]
    specs = list(
        FaultPlan.renumbering(testbed.content_name, change_times).faults
    )
    if plan == "ddos":
        # A 20 %-of-run outage at the child authoritative, with one
        # renumbering landing inside it: the update channel must survive
        # the attack *and* catch up afterwards.
        specs.append(
            FaultSpec(
                kind="server_outage",
                start=round(duration * 0.45, 3),
                duration=round(duration * 0.20, 3),
                target=testbed.target_address,
            )
        )
    injector = attach_fault_plan(world.network, specs, f"push-{plan}", seed, fault_plan)

    publisher = None
    policy = ResolverPolicy.child_centric()
    if mode == "push":
        publisher = attach_publisher(testbed.server, world.network)
        policy = ResolverPolicy.pushing()

    resolvers = [
        world.resolver(
            world.topology.endpoint_in_region(Region.EU, f"res{index}"), policy
        )
        for index in range(seats)
    ]

    name = Name(testbed.content_name)
    change_log: list[tuple[float, str]] = []
    applied = 0

    def apply_due(now: float) -> None:
        # Fire due record_change events: mutate the zone at the scheduled
        # instant and (push mode) publish the new RRset.  Both modes
        # consume the same injector schedule — the change feed is part of
        # the world, the update channel is the experimental treatment.
        nonlocal applied
        for spec in injector.take_record_changes(now):
            address = testbed.apply_change(applied)
            if publisher is not None:
                publisher.publish(name, RdataType.A, spec.start)
            change_log.append((spec.start, address))
            applied += 1

    observations: list[list[tuple[float, Optional[str]]]] = [
        [] for _ in range(seats)
    ]
    probes = answered = 0
    # Seats probe on a staggered cadence so cache expiries and pushed
    # updates land between different seats' probes, not all at once.
    offset = probe_interval / (seats + 1)

    def probe(seat: int, at: float) -> None:
        nonlocal probes, answered
        apply_due(at)
        out = resolvers[seat].resolve(name, RdataType.A, now=at)
        address = None
        if out.rcode == Rcode.NOERROR and out.answers:
            address = getattr(out.answers[-1].rdatas[0], "address", None)
        probes += 1
        answered += address is not None
        observations[seat].append((at, address))

    for seat in range(seats):
        probe(seat, seat * offset)
    slots = int(duration // probe_interval)
    for slot in range(1, slots + 1):
        for seat in range(seats):
            probe(seat, slot * probe_interval + seat * offset)

    # Staleness and volume accounting -------------------------------------
    stale = 0
    for seat_obs in observations:
        for at, seen in seat_obs:
            if seen is None:
                continue
            truth = "203.0.113.10"
            for changed_at, address in change_log:
                if changed_at <= at:
                    truth = address
            stale += seen != truth
    lags = sorted(_push_staleness_lags(change_log, observations, duration))
    mean_lag = sum(lags) / len(lags) if lags else 0.0

    snapshot = metrics.snapshot()
    return PushCell(
        plan=plan,
        mode=mode,
        ttl=ttl,
        seed=seed,
        seats=seats,
        probes=probes,
        answered=answered,
        stale_probes=stale,
        auth_queries=testbed.server.queries_received,
        notifications=_counter(snapshot, "push.notifications"),
        coalesced=_counter(snapshot, "push.coalesced"),
        session_resets=_counter(snapshot, "push.session_resets"),
        reconnects=_counter(snapshot, "push.reconnects"),
        mean_staleness_s=mean_lag,
    )


def scenario_push_vs_poll(
    seed: int = 0,
    ttls: tuple = (60, 3600, 86400),
    plans: tuple = CAMPAIGNS["push"].axes["plan"],
    modes: tuple = CAMPAIGNS["push"].axes["mode"],
    seats: int = 4,
    changes: int = 6,
    probe_interval: float = 60.0,
    duration: float = 7200.0,
    faults=None,
    parallelism: Optional[int] = None,
    run_dir: Optional[str] = None,
    progress=None,
    profile: Optional[str] = None,
) -> GridRun:
    """Staleness window vs authoritative volume: pub/sub updates against
    TTL polling, under renumbering and DDoS fault plans.

    Runs a (plan × mode × TTL) matrix of independent cells, each a fresh
    :func:`build_push_world` whose ``record_change`` schedule renumbers
    the probed answer mid-run.  Both modes consume the *same* seeded
    schedule and the *same* probe cadence; only the update channel
    differs.  The cells run as one shard each through
    :mod:`repro.runner` — byte-identical for any ``parallelism``, push
    metrics included.  ``faults`` schedules extra failures on top of
    every cell's own plan.

    The expected shape: polling trades the two axes against each other
    (TTL 60 is fresh but loud, TTL 86400 quiet but stale for hours after
    a renumbering), while push at a long TTL holds both — staleness
    bounded by delivery latency, volume bounded by the change rate —
    and under the DDoS plan keeps answering from the long-TTL cache
    where short-TTL polling goes dark.
    """
    axes = {"plan": plans, "mode": modes, "ttl": ttls}
    fixed = {
        "seats": seats,
        "changes": changes,
        "probe_interval": probe_interval,
        "duration": duration,
        "fault_plan": _normalize_fault_plan(faults),
    }
    return run_grid("push", seed, axes, fixed, parallelism, run_dir, progress, profile)


def report_push(run: GridRun):
    table = Table(
        ["plan", "TTL (s)", "mode", "answered", "stale", "staleness (s)",
         "auth queries", "notifies", "resets"],
        title="Push vs poll: staleness window and authoritative volume vs TTL",
    )
    for cell in run.cells:
        table.add_row(
            cell.plan, cell.ttl, cell.mode,
            f"{cell.answered_rate * 100:.0f}%",
            f"{cell.stale_rate * 100:.1f}%",
            f"{cell.mean_staleness_s:.1f}",
            cell.auth_queries, cell.notifications, cell.session_resets,
        )
    return table.render(), run.metrics
