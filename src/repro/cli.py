"""Command-line interface: operator-facing tools built on the library.

Subcommands::

    python -m repro.cli recommend   --kind registry --no-parent-control
    python -m repro.cli effective   --parent-ns 172800 --child-ns 300 ...
    python -m repro.cli hitrate     --rate-per-hour 12 --ttl 300 3600 86400
    python -m repro.cli demo-uy     [--probes 150]
    python -m repro.cli crawl       [--scale 0.001] [--seed 0]
    python -m repro.cli run t2-uy   --parallel 4 [--run-dir out/t2] [--metrics m.json]
    python -m repro.cli run ddos    --faults plan.json [--metrics m.json]
    python -m repro.cli metrics     m.json [--validate-only]
    python -m repro.cli faults      plan.json [--validate-only]

Everything prints plain text; there is no network access — the "demo" and
"crawl" subcommands run the simulation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.hitrate import analytic_hit_rate, diminishing_returns_ttl
from repro.analysis.tables import Table
from repro.core.campaign import CAMPAIGNS
from repro.core.effective_ttl import DelegationConfig, effective_record_ttl
from repro.core.recommendations import OperatorKind, ZoneSituation, recommend
from repro.resolver.policy import ResolverPolicy

_KINDS = {
    "general": OperatorKind.GENERAL_ZONE,
    "registry": OperatorKind.TLD_REGISTRY,
    "load-balanced": OperatorKind.LOAD_BALANCED,
    "ddos-protected": OperatorKind.DDOS_PROTECTED,
}

_POLICIES = {
    "child": ResolverPolicy.child_centric,
    "parent": ResolverPolicy.parent_centric,
    "capping": ResolverPolicy.capping,
    "sticky": ResolverPolicy.sticky_resolver,
    "unlinked": ResolverPolicy.unlinked,
    # The signature encloses the child's TTL, so a validating resolver is
    # child-centric (paper §2).
    "validating": ResolverPolicy.child_centric,
}


def _cmd_recommend(args: argparse.Namespace) -> int:
    situation = ZoneSituation(
        kind=_KINDS[args.kind],
        uses_cdn_load_balancing=args.load_balancing,
        uses_dns_ddos_mitigation=args.ddos_mitigation,
        servers_in_bailiwick=not args.out_of_bailiwick,
        controls_parent_ttl=not args.no_parent_control,
        planned_changes_lead_time=args.lead_time,
    )
    print(recommend(situation).describe())
    return 0


def _cmd_effective(args: argparse.Namespace) -> int:
    config = DelegationConfig(
        parent_ns_ttl=args.parent_ns,
        child_ns_ttl=args.child_ns,
        parent_glue_ttl=None if args.out_of_bailiwick else args.parent_glue,
        child_address_ttl=args.child_address,
        in_bailiwick=not args.out_of_bailiwick,
    )
    table = Table(
        ["resolver policy", "effective NS TTL", "effective A TTL",
         "controller", "renumber switch"],
        title="Effective TTLs by resolver behaviour",
    )
    for label in args.policies:
        policy = _POLICIES[label]()
        effective = effective_record_ttl(config, policy)
        switch = (
            f"{effective.switch_time}s" if effective.switch_time is not None else "never"
        )
        table.add_row(
            label,
            f"{effective.ns_ttl}s",
            f"{effective.address_ttl}s" if effective.address_ttl is not None else "-",
            effective.controller,
            switch,
        )
    print(table.render())
    return 0


def _cmd_hitrate(args: argparse.Namespace) -> int:
    rate = args.rate_per_hour / 3600.0
    table = Table(
        ["TTL (s)", "hit rate", "expected latency"],
        title=f"Cache hit rate at {args.rate_per_hour} queries/hour "
        "(Jung et al. model)",
    )
    for ttl in args.ttl:
        hit = analytic_hit_rate(rate, ttl)
        latency = hit * args.hit_ms + (1 - hit) * args.miss_ms
        table.add_row(ttl, f"{hit * 100:.1f}%", f"{latency:.1f} ms")
    print(table.render())
    knee = diminishing_returns_ttl(rate)
    print(f"\n90% of the caching benefit is reached at TTL ~{knee:.0f}s.")
    return 0


def _cmd_demo_uy(args: argparse.Namespace) -> int:
    from repro.analysis.cdf import ECDF
    from repro.core.scenarios import scenario_uy_natural

    print("Running the .uy natural experiment (paper §5.3)...")
    run = scenario_uy_natural(seed=args.seed, probes=args.probes, duration=3600)
    before = ECDF(run.before.rtts_ms())
    after = ECDF(run.after.rtts_ms())
    table = Table(["configuration", "median", "p75", "p95"], title=".uy NS query RTT")
    table.add_row("TTL 300s", f"{before.median:.1f} ms",
                  f"{before.quantile(0.75):.1f} ms", f"{before.quantile(0.95):.1f} ms")
    table.add_row("TTL 86400s", f"{after.median:.1f} ms",
                  f"{after.quantile(0.75):.1f} ms", f"{after.quantile(0.95):.1f} ms")
    print(table.render())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Re-analyze an archived measurement dataset (JSON lines)."""
    if getattr(args, "querylog", False):
        return _cmd_analyze_querylog(args)
    from repro.analysis.cdf import ECDF
    from repro.analysis.centricity import classify_active_ttls
    from repro.atlas.datasets import load_results

    results = load_results(args.dataset)
    valid = results.valid()
    summary = results.summary()
    table = Table(["metric", "value"], title=f"Dataset: {args.dataset}")
    for key in ("probes", "vps", "queries", "responses_valid",
                "responses_discarded", "resolvers", "ases"):
        table.add_row(key, summary[key])
    print(table.render())

    ttls = valid.ttls()
    if ttls:
        cdf = ECDF(ttls)
        print(f"\nTTLs: n={len(cdf)} median={cdf.median:.0f}s "
              f"p90={cdf.quantile(0.9):.0f}s max={cdf.max:.0f}s")
    rtts = valid.rtts_ms()
    if rtts:
        cdf = ECDF(rtts)
        print(f"RTTs: median={cdf.median:.1f}ms p75={cdf.quantile(0.75):.1f}ms "
              f"p95={cdf.quantile(0.95):.1f}ms")
    if args.parent_ttl is not None and args.child_ttl is not None and ttls:
        breakdown = classify_active_ttls(
            ttls, parent_ttl=args.parent_ttl, child_ttl=args.child_ttl
        )
        print(
            f"centricity: child {breakdown.child_fraction * 100:.1f}% / "
            f"parent {breakdown.parent_fraction * 100:.1f}% / "
            f"capped {breakdown.capped_fraction * 100:.1f}%"
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.audit import audit_zone, render_report
    from repro.dns.zonefile import parse_zone

    with open(args.zonefile, "r", encoding="ascii") as handle:
        zone = parse_zone(handle.read(), origin=args.origin)
    parent = None
    if args.parent_zonefile:
        with open(args.parent_zonefile, "r", encoding="ascii") as handle:
            parent = parse_zone(handle.read(), origin=args.parent_origin)
    findings = audit_zone(zone, parent)
    print(render_report(findings))
    return 1 if any(f.severity.value == "error" for f in findings) else 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.crawler import Crawler, build_crawl_universe
    from repro.crawler.report import bailiwick_census, record_counts

    print(f"Building a scale={args.scale} universe (seed {args.seed})...")
    universe = build_crawl_universe(scale=args.scale, seed=args.seed)
    result = Crawler(universe).crawl()
    table = Table(
        ["list", "domains", "responsive", "NS-responders", "% out-of-bailiwick"],
        title="Crawl summary (paper Tables 5 and 9)",
    )
    counts = record_counts(result)
    census = bailiwick_census(result)
    for name in counts:
        table.add_row(
            name,
            counts[name].domains,
            counts[name].responsive,
            census[name].respond_ns,
            f"{census[name].percent_out:.1f}%",
        )
    print(table.render())
    return 0


# ------------------------------------------------------- sharded campaigns

#: Worlds `repro serve` can front; mirrors repro.serve.config.WORLD_BUILDERS
#: (kept literal here so --help needs no heavyweight import).
_SERVE_WORLDS = ("cl", "uy", "googleco", "nl", "controlled")


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one campaign sharded, with progress telemetry on stderr."""
    from repro.runner.checkpoint import CheckpointMismatch

    try:
        if args.profile is not None and args.parallel <= 1:
            # Serial: profile the whole campaign in-process.  Under
            # --parallel the executor profiles each shard instead
            # (PATH.shard-NNNN), since workers are separate processes.
            import cProfile

            profiler = cProfile.Profile()
            try:
                status = profiler.runcall(_cmd_run_inner, args)
            finally:
                profiler.dump_stats(args.profile)
                if not args.quiet:
                    print(f"profile written to {args.profile}", file=sys.stderr)
            return status
        return _cmd_run_inner(args)
    except CheckpointMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: pass a fresh --run-dir (or delete the old one) to "
              "start a new campaign", file=sys.stderr)
        return 2


def _write_metrics(args: argparse.Namespace, snapshot) -> None:
    """Write the campaign's merged snapshot as canonical JSON.

    Sim-domain only by default: those bytes are identical for any worker
    count (the determinism contract); ``--metrics-include-host`` opts
    into the wall-clock telemetry too, giving up byte-stability.
    """
    if args.metrics is None:
        return
    if snapshot is None:
        from repro.metrics import MetricsSnapshot

        snapshot = MetricsSnapshot.empty()
    with open(args.metrics, "w", encoding="ascii") as handle:
        handle.write(snapshot.to_json(include_host=args.metrics_include_host))
    if not args.quiet:
        print(f"metrics written to {args.metrics}", file=sys.stderr)


def _unsupported(args: argparse.Namespace, flag: str, capability: str,
                 noun: str) -> int:
    """Reject ``flag`` on a campaign whose spec lacks ``capability``."""
    capable = [
        spec.name for spec in CAMPAIGNS.values() if getattr(spec, capability)
    ]
    print(f"error: {flag} is not supported for {args.campaign} "
          f"({noun} campaigns: {', '.join(capable)})", file=sys.stderr)
    return 2


def _load_fault_plan(args: argparse.Namespace):
    """Read and validate ``--faults``; returns ``(plan, exit_code)``."""
    from repro.faults import FaultPlan, validate_json

    if args.faults is None:
        return None, 0
    if not CAMPAIGNS[args.campaign].faults:
        return None, _unsupported(args, "--faults", "faults", "faultable")
    try:
        with open(args.faults, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read fault plan {args.faults}: {exc.strerror}",
              file=sys.stderr)
        return None, 2
    errors = validate_json(text)
    if errors:
        for error in errors:
            print(f"invalid fault plan: {error}", file=sys.stderr)
        return None, 2
    return FaultPlan.from_json(text), 0


def _cmd_run_inner(args: argparse.Namespace) -> int:
    from repro.runner.progress import render_event

    def progress(event) -> None:
        if not args.quiet:
            print(render_event(event), file=sys.stderr, flush=True)

    spec = CAMPAIGNS[args.campaign]
    faults, status = _load_fault_plan(args)
    if status:
        return status
    if args.predict and not spec.predict:
        return _unsupported(args, "--predict", "predict", "predictive")
    if args.snapshot_every:
        if not spec.snapshot:
            return _unsupported(args, "--snapshot-every", "snapshot", "snapshot")
        if args.run_dir is None:
            print("error: --snapshot-every needs --run-dir (snapshots live "
                  "in the checkpoint directory)", file=sys.stderr)
            return 2
    kwargs = dict(
        seed=args.seed,
        parallelism=args.parallel,
        run_dir=args.run_dir,
        progress=progress,
        # Serial --profile is handled whole-campaign by _cmd_run; only the
        # pool path profiles per shard here.
        profile=args.profile if args.parallel > 1 else None,
    )
    kwargs.update(
        (keyword, getattr(args, option)) for keyword, option in spec.cli_args.items()
    )
    if spec.faults:
        kwargs["faults"] = faults
    if spec.predict:
        kwargs["predict"] = args.predict
    if spec.snapshot:
        kwargs["snapshot_every"] = args.snapshot_every
    text, metrics = spec.load("render")(spec.load("scenario")(**kwargs))
    print(text)
    _write_metrics(args, metrics)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Validate and render a metrics JSON file written by ``repro run``."""
    from repro.metrics import MetricsSnapshot, render_snapshot, validate_json

    with open(args.file, "r", encoding="ascii") as handle:
        text = handle.read()
    errors = validate_json(text)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 2
    snapshot = MetricsSnapshot.from_json(text)
    if args.validate_only:
        print(f"{args.file}: valid ({len(snapshot)} metrics)")
        return 0
    print(render_snapshot(snapshot, title=args.file))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Validate and render a fault plan for ``repro run --faults``."""
    from repro.faults import FaultPlan, validate_json

    try:
        with open(args.file, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read fault plan {args.file}: {exc.strerror}",
              file=sys.stderr)
        return 2
    errors = validate_json(text)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 2
    plan = FaultPlan.from_json(text)
    if args.validate_only:
        print(f"{args.file}: valid ({len(plan)} faults)")
        return 0
    start, end = plan.window()
    title = f"Fault plan {plan.name or args.file} (seed {plan.seed}, " \
            f"window {start:.0f}-{end:.0f}s)"
    table = Table(["#", "kind", "start (s)", "duration (s)", "target", "detail"],
                  title=title)
    for index, spec in enumerate(plan):
        details = []
        if spec.rate is not None:
            details.append(f"rate={spec.rate}")
        if spec.delay_ms is not None:
            details.append(f"delay={spec.delay_ms}ms")
        if spec.site is not None:
            details.append(f"site={spec.site}")
        if spec.src is not None:
            details.append(f"src={spec.src}")
        table.add_row(
            index, spec.kind, f"{spec.start:.0f}", f"{spec.duration:.0f}",
            spec.target or "*", " ".join(details) or "-",
        )
    print(table.render())
    return 0


_ARTIFACT_RUNNERS = {}


def _artifact(name):
    def register(func):
        _ARTIFACT_RUNNERS[name] = func
        return func

    return register


@_artifact("table1")
def _run_table1(args) -> str:
    from repro.analysis.tables import Table
    from repro.core.scenarios import scenario_table1_cl

    rows = scenario_table1_cl(args.seed)
    table = Table(["Q / Type", "Server", "Response", "TTL", "Sec.", "AA"],
                  title="Table 1: a.nic.cl TTLs")
    for row in rows:
        table.add_row(row.query, row.server, row.response, row.ttl,
                      row.section, "*" if row.authoritative else "")
    return table.render()


@_artifact("fig1")
def _run_fig1(args) -> str:
    from repro.analysis.tables import render_cdf
    from repro.core.scenarios import scenario_anicuy_a, scenario_uy_ns

    ns_run = scenario_uy_ns(args.seed, probes=args.probes, duration=3600)
    a_run = scenario_anicuy_a(args.seed, probes=args.probes, duration=3600)
    return render_cdf(
        {".uy-NS": ns_run.results.ttls(), "a.nic.uy-A": a_run.results.ttls()},
        title="Figure 1: observed TTLs", unit="s",
    )


@_artifact("fig6")
def _run_fig6(args) -> str:
    from repro.analysis.tables import render_timeseries
    from repro.core.scenarios import scenario_bailiwick

    run = scenario_bailiwick(args.seed, in_bailiwick=True, probes=args.probes)
    series = {
        ("old" if key == run.old_label else "new"): bins
        for key, bins in run.results.answer_timeseries(600.0).items()
    }
    return render_timeseries(series, 600.0, title="Figure 6: in-bailiwick renumbering")


@_artifact("fig7")
def _run_fig7(args) -> str:
    from repro.analysis.tables import render_timeseries
    from repro.core.scenarios import scenario_bailiwick

    run = scenario_bailiwick(args.seed, in_bailiwick=False, probes=args.probes)
    series = {
        ("old" if key == run.old_label else "new"): bins
        for key, bins in run.results.answer_timeseries(600.0).items()
    }
    return render_timeseries(series, 600.0, title="Figure 7: out-of-bailiwick renumbering")


@_artifact("fig10")
def _run_fig10(args) -> str:
    from repro.analysis.cdf import ECDF
    from repro.core.scenarios import scenario_uy_natural

    run = scenario_uy_natural(args.seed, probes=args.probes, duration=3600)
    before = ECDF(run.before.rtts_ms())
    after = ECDF(run.after.rtts_ms())
    return (
        "Figure 10: .uy latency\n"
        f"TTL 300s:   median {before.median:.1f} ms, p75 {before.quantile(0.75):.1f} ms\n"
        f"TTL 86400s: median {after.median:.1f} ms, p75 {after.quantile(0.75):.1f} ms"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve one of the simulated worlds on a real UDP+TCP port."""
    from repro.serve.config import ServeConfig
    from repro.serve.workers import run_workers

    config = ServeConfig(
        world=args.world,
        seed=args.seed,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        rrl_rate=args.rrl_rate,
        max_udp_payload=args.max_udp_payload,
        time_scale=args.time_scale,
        predict=args.predict,
        ecs=args.ecs,
        memo=not args.no_memo,
        prewarm=args.prewarm,
        querylog_path=args.querylog,
        metrics_path=args.metrics,
    )
    return run_workers(config)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Fire wire-format queries at a live server and report."""
    from repro.loadgen.client import LoadgenConfig, run_loadgen
    from repro.metrics import MetricsRegistry

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        rate_qps=args.rate,
        duration_s=args.duration,
        mode=args.mode,
        arrivals=args.arrivals,
        concurrency=args.concurrency,
        population=args.population,
        zipf_exponent=args.zipf,
        qname_template=args.qname_template,
        seed=args.seed,
        timeout_s=args.timeout,
        retries=args.retries,
        use_edns=not args.no_edns,
        sockets=args.sockets,
        count=args.count,
        parse_responses=not args.no_parse,
        dump_responses=args.dump_responses,
        ecs_subnets=args.ecs_subnets,
    )
    report = run_loadgen(config)
    if args.json:
        import json

        payload = {
            "mode": report.mode,
            "offered_qps": report.offered_qps,
            "achieved_qps": report.achieved_qps,
            "wall_s": report.wall_s,
            "sent": report.sent,
            "received": report.received,
            "lost": report.lost,
            "loss_rate": report.loss_rate,
            "attempts": report.attempts,
            "parse_errors": report.parse_errors,
            "rcodes": {str(code): n for code, n in sorted(report.rcodes.items())},
        }
        if report.latency is not None:
            payload["latency_ms"] = {
                "p50": report.latency.median,
                "p95": report.latency.p95,
                "p99": report.latency.p99,
                "mean": report.latency.mean,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.metrics:
        registry = MetricsRegistry()
        report.to_metrics(registry)
        with open(args.metrics, "w", encoding="utf-8") as stream:
            stream.write(registry.snapshot().to_json(include_host=True))
    # A run that lost every query (or parsed nothing) is a failure.
    return 0 if report.received > 0 else 1


def _cmd_analyze_querylog(args: argparse.Namespace) -> int:
    """§3.4-style passive analysis over a live server's query log."""
    from repro.analysis.cdf import ECDF
    from repro.analysis.interarrival import (
        min_interarrival_per_group,
        queries_per_group,
    )
    from repro.server.querylog import QueryLog

    log = QueryLog.read_jsonl(args.dataset)
    groups = log.by_group()
    table = Table(["metric", "value"], title=f"Query log: {args.dataset}")
    table.add_row("queries", len(log))
    table.add_row("clients", len(log.unique_clients()))
    table.add_row("groups (client, qname)", len(groups))
    print(table.render())
    by_server = log.query_count_by_server()
    if len(by_server) > 1:
        # Multi-worker logs: the per-worker split is how flow-steering
        # imbalance (one worker taking all traffic) becomes visible.
        split = Table(["server", "queries", "share"], title="Queries by server")
        for server, count in sorted(by_server.items()):
            split.add_row(server, count, f"{count / len(log):.1%}")
        print()
        print(split.render())
    counts = queries_per_group(groups)
    if counts:
        cdf = ECDF(counts)
        print(f"\nqueries/group: n={len(cdf)} median={cdf.median:.0f} "
              f"p90={cdf.quantile(0.9):.0f} max={cdf.max:.0f}")
    minima = min_interarrival_per_group(groups)
    if minima:
        cdf = ECDF(minima)
        print(f"min interarrival s: median={cdf.median:.1f} "
              f"p25={cdf.quantile(0.25):.1f} p75={cdf.quantile(0.75):.1f}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    runner = _ARTIFACT_RUNNERS.get(args.artifact)
    if runner is None:
        print(f"unknown artifact {args.artifact!r}; available: "
              + ", ".join(sorted(_ARTIFACT_RUNNERS)), file=sys.stderr)
        print("(the full set of artifacts lives in benchmarks/ — run "
              "`pytest benchmarks/ --benchmark-only`)", file=sys.stderr)
        return 2
    print(runner(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tools from the 'Cache Me If You Can' reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recommend", help="§6.3 TTL guidance for a zone")
    rec.add_argument("--kind", choices=sorted(_KINDS), default="general")
    rec.add_argument("--load-balancing", action="store_true")
    rec.add_argument("--ddos-mitigation", action="store_true")
    rec.add_argument("--out-of-bailiwick", action="store_true")
    rec.add_argument("--no-parent-control", action="store_true")
    rec.add_argument("--lead-time", type=int, default=None,
                     help="seconds of notice before planned changes")
    rec.set_defaults(func=_cmd_recommend)

    eff = sub.add_parser("effective", help="effective TTLs for a delegation")
    eff.add_argument("--parent-ns", type=int, required=True)
    eff.add_argument("--child-ns", type=int, required=True)
    eff.add_argument("--parent-glue", type=int, default=None)
    eff.add_argument("--child-address", type=int, default=None)
    eff.add_argument("--out-of-bailiwick", action="store_true")
    eff.add_argument("--policies", nargs="+", choices=sorted(_POLICIES),
                     default=["child", "parent", "capping", "sticky"])
    eff.set_defaults(func=_cmd_effective)

    hit = sub.add_parser("hitrate", help="hit rate / latency vs TTL")
    hit.add_argument("--rate-per-hour", type=float, default=12.0)
    hit.add_argument("--ttl", type=int, nargs="+",
                     default=[60, 300, 900, 1800, 3600, 28800, 86400])
    hit.add_argument("--hit-ms", type=float, default=1.0)
    hit.add_argument("--miss-ms", type=float, default=100.0)
    hit.set_defaults(func=_cmd_hitrate)

    demo = sub.add_parser("demo-uy", help="run the §5.3 natural experiment")
    demo.add_argument("--probes", type=int, default=150)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo_uy)

    analyze = sub.add_parser(
        "analyze", help="re-analyze an archived measurement dataset"
    )
    analyze.add_argument("dataset", help="JSON-lines file from repro.atlas.datasets")
    analyze.add_argument("--parent-ttl", type=int, default=None)
    analyze.add_argument("--child-ttl", type=int, default=None)
    analyze.add_argument("--querylog", action="store_true",
                         help="treat the file as a `repro serve --querylog` "
                              "JSONL log and run the §3.4 interarrival "
                              "analysis instead")
    analyze.set_defaults(func=_cmd_analyze)

    audit = sub.add_parser("audit", help="lint a zone file against §6.3")
    audit.add_argument("zonefile", help="path to the child zone's master file")
    audit.add_argument("--origin", default=None,
                       help="zone origin if the file has no $ORIGIN")
    audit.add_argument("--parent-zonefile", default=None,
                       help="master file with the parent's delegation view")
    audit.add_argument("--parent-origin", default=None)
    audit.set_defaults(func=_cmd_audit)

    crawl = sub.add_parser("crawl", help="run the §5.1 crawl pipeline")
    crawl.add_argument("--scale", type=float, default=0.001)
    crawl.add_argument("--seed", type=int, default=0)
    crawl.set_defaults(func=_cmd_crawl)

    run = sub.add_parser(
        "run", help="run a campaign sharded over N workers (repro.runner)"
    )
    run.add_argument("campaign", choices=tuple(CAMPAIGNS),
                     help="which campaign to execute")
    run.add_argument("--parallel", type=int, default=1,
                     help="worker processes (1 = serial in-process fallback)")
    from repro.runner.shard import DEFAULT_SHARDS

    run.add_argument("--shards", type=int, default=DEFAULT_SHARDS,
                     help=f"shard count (default {DEFAULT_SHARDS}; results "
                          "depend on the shard plan, never on the worker "
                          "count, so the same --shards gives the same "
                          "output at any --parallel)")
    run.add_argument("--probes", type=int, default=120)
    run.add_argument("--duration", type=float, default=3600.0)
    run.add_argument("--scale", type=float, default=0.001,
                     help="crawl campaign: list scale factor")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--run-dir", default=None,
                     help="checkpoint directory; rerunning resumes from "
                          "completed shards")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the progress ticker on stderr")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the campaign's merged metrics snapshot as "
                          "canonical JSON (sim domain only: byte-identical "
                          "for any --parallel at a fixed shard plan)")
    run.add_argument("--metrics-include-host", action="store_true",
                     help="also export host-domain execution telemetry "
                          "(wall times, retries); gives up byte-stability")
    run.add_argument("--faults", default=None, metavar="PATH",
                     help="fault plan JSON (repro.faults/v1) scheduling "
                          "outages/loss/SERVFAILs against the campaign's "
                          "virtual clock; deterministic at any --parallel")
    run.add_argument("--predict", action="store_true",
                     help="arm every resolver with the predictive policy: "
                          "refresh-ahead for hot names plus RFC 8767 "
                          "stale-while-revalidate")
    run.add_argument("--profile", default=None, metavar="PATH",
                     help="write cProfile stats: the whole campaign to PATH "
                          "when serial, one PATH.shard-NNNN per shard under "
                          "--parallel (inspect with pstats / snakeviz)")
    run.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                     help="with --run-dir on a t2-* campaign: spill a world "
                          "snapshot every N queries so a killed run resumes "
                          "mid-shard instead of restarting the shard "
                          "(0 = shard-boundary checkpoints only)")
    run.set_defaults(func=_cmd_run)

    metrics = sub.add_parser(
        "metrics", help="validate and render a metrics JSON snapshot"
    )
    metrics.add_argument("file", help="snapshot written by `repro run --metrics`")
    metrics.add_argument("--validate-only", action="store_true",
                         help="check the file against the schema and exit")
    metrics.set_defaults(func=_cmd_metrics)

    faults = sub.add_parser(
        "faults", help="validate and render a fault plan (repro.faults/v1)"
    )
    faults.add_argument("file", help="plan JSON for `repro run --faults`")
    faults.add_argument("--validate-only", action="store_true",
                        help="check the file against the schema and exit")
    faults.set_defaults(func=_cmd_faults)

    serve = sub.add_parser(
        "serve", help="serve a simulated world live on a UDP+TCP port"
    )
    serve.add_argument("--world", choices=sorted(_SERVE_WORLDS), default="nl",
                       help="which canonical world the resolver fronts")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 = ephemeral (the ready line prints the port); "
                            "--workers > 1 needs an explicit port")
    serve.add_argument("--workers", type=int, default=1,
                       help="SO_REUSEPORT worker processes, one core each")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="admitted-but-unanswered budget before shedding "
                            "with an early SERVFAIL")
    serve.add_argument("--rrl-rate", type=int, default=0,
                       help="per-client responses/second; 0 disables RRL")
    serve.add_argument("--max-udp-payload", type=int, default=1232,
                       help="largest UDP response; larger answers truncate")
    serve.add_argument("--time-scale", type=float, default=1.0,
                       help="sim seconds per wall second (TTLs age faster)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--no-memo", action="store_true",
                       help="disable the encode-once hot-response memo")
    serve.add_argument("--prewarm", type=int, default=0, metavar="N",
                       help="resolve the top-N hot names into each worker's "
                            "cache before serving (rank 0 = most popular)")
    serve.add_argument("--ecs", action="store_true",
                       help="accept RFC 7871 client-subnet options, forward "
                            "them upstream, and cache scoped answers per "
                            "subnet (see docs/ecs.md)")
    serve.add_argument("--predict", action="store_true",
                       help="refresh hot names ahead of expiry and serve "
                            "stale while revalidating (RFC 8767)")
    serve.add_argument("--querylog", default=None, metavar="PATH",
                       help="append ENTRADA-style JSONL entries for "
                            "`repro analyze --querylog`")
    serve.add_argument("--metrics", default=None, metavar="PATH",
                       help="write a metrics snapshot (host domain included) "
                            "on shutdown; workers are merged")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="open-loop wire-level load against a live server"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="offered queries/second (open-loop)")
    loadgen.add_argument("--duration", type=float, default=5.0)
    loadgen.add_argument("--mode", choices=["open", "closed"], default="open")
    loadgen.add_argument("--arrivals", choices=["poisson", "fixed"],
                         default="poisson")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="closed-loop: queries kept in flight")
    loadgen.add_argument("--population", type=int, default=500,
                         help="distinct qnames under the Zipf law")
    loadgen.add_argument("--zipf", type=float, default=1.0,
                         help="Zipf exponent (0 = uniform popularity)")
    loadgen.add_argument("--qname-template", default="www.domain{}.nl.",
                         help="rank -> qname template; {} is the Zipf rank")
    loadgen.add_argument("--timeout", type=float, default=2.0)
    loadgen.add_argument("--retries", type=int, default=2)
    loadgen.add_argument("--no-edns", action="store_true",
                         help="send plain 512-byte-limit queries")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--sockets", type=int, default=1, metavar="N",
                         help="UDP source sockets to spread queries over "
                              "(SO_REUSEPORT servers hash each socket to "
                              "one worker; use several to reach them all)")
    loadgen.add_argument("--count", type=int, default=None, metavar="N",
                         help="closed-loop only: stop after exactly N "
                              "queries instead of after --duration")
    loadgen.add_argument("--no-parse", action="store_true",
                         help="skip full response decoding; read the rcode "
                              "from the header (for throughput benches)")
    loadgen.add_argument("--dump-responses", default=None, metavar="PATH",
                         help="write one sha256 per answered query "
                              "(response bytes, ID zeroed) in arrival order")
    loadgen.add_argument("--ecs-subnets", type=int, default=0, metavar="N",
                         help="attach an RFC 7871 ECS option sampling N "
                              "distinct client /24s (0 = no ECS); pair "
                              "with `repro serve --ecs`")
    loadgen.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of text")
    loadgen.add_argument("--metrics", default=None, metavar="PATH",
                         help="write the run's metrics snapshot JSON")
    loadgen.set_defaults(func=_cmd_loadgen)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate one paper artifact at the terminal"
    )
    reproduce.add_argument("artifact", help="e.g. table1, fig1, fig6, fig7, fig10")
    reproduce.add_argument("--probes", type=int, default=120)
    reproduce.add_argument("--seed", type=int, default=0)
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout closed mid-write (e.g. piped into `head`): exit quietly.
        return 0


if __name__ == "__main__":
    sys.exit(main())
