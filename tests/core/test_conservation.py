"""Conservation: every query is counted once, and both sides agree.

The paper confirms its client-side measurements from the authoritative
side (§4.6).  The simulator keeps each count in one place, so the same
confirmation is an identity over a campaign's ``--metrics`` snapshot:

- every upstream query a resolver sends is one exchange on the fabric;
- every query an authoritative answers arrived as one datagram exchange
  or one framed TCP exchange;
- every lost transmission was either retried or ended in a timeout;
- every client query a resolver answers probes its negative cache once
  (a response-memo hit stands in for the probe of the cache hit it
  replaces);
- every exchange records one RTT in ``net.rtt_ms``, and every datagram a
  frontend answers one latency in ``serve.latency_ms``, so a histogram
  batch lost or folded twice shows.

Each registered campaign is checked at its ``ORACLE`` arguments, serial
and sharded, plus one faulted run per fault kind, on a campaign whose
world holds the kind's target, which must also move the kind's own
instruments; the memo
tests in ``tests/serve/test_response_memo.py`` check live frontends'
snapshots.  The same snapshots (and a live frontend's) must name only
metrics that ``docs/observability.md`` documents.
"""

import asyncio
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.campaign import CAMPAIGNS
from repro.core.worlds import build_googleco_world, build_uy_world
from repro.dns.rdtypes import RdataType
from repro.dns.message import Message
from repro.faults import FaultPlan, FaultSpec
from repro.faults.plan import KINDS
from repro.serve.config import ServeConfig, build_frontend
from repro.serve.server import ServeServer
from tests.core.test_campaign_registry import ORACLE

DOCUMENTED = set(
    re.findall(
        r"`([a-z_]+(?:\.[a-z_]+)+)`",
        (Path(__file__).resolve().parents[2] / "docs" / "observability.md").read_text(),
    )
)


def conservation_problems(metrics: dict) -> list[str]:
    """The identities a snapshot breaks; empty when it conserves."""
    count = {
        name: sum(metric["values"].values()) if "values" in metric else metric["value"]
        for name, metric in metrics.items()
        if metric["kind"] in ("counter", "labeled_counter")
    }
    exchanges = count["net.exchanges"]
    problems = []
    if "resolver.upstream_queries" in count and count["resolver.upstream_queries"] != exchanges:
        problems.append(f"resolver.upstream_queries {count['resolver.upstream_queries']} "
                        f"!= net.exchanges {exchanges}")
    framed = count.get("net.tcp.exchanges", 0)
    if count["auth.queries"] != exchanges + framed:
        problems.append(f"auth.queries {count['auth.queries']} != net.exchanges "
                        f"{exchanges} + net.tcp.exchanges {framed}")
    lost, retries, timeouts = (
        count["net.lost_transmissions"], count["net.retries"], count["net.timeouts"]
    )
    if lost != retries + timeouts:
        problems.append(f"net.lost_transmissions {lost} != net.retries {retries} "
                        f"+ net.timeouts {timeouts}")
    if "resolver.client_queries" in count:
        probes = count["cache.negative_hits"] + count["cache.negative_misses"]
        if probes != count["resolver.client_queries"]:
            problems.append(f"cache.negative_hits + cache.negative_misses {probes} "
                            f"!= resolver.client_queries {count['resolver.client_queries']}")
    if metrics["net.rtt_ms"]["count"] != exchanges:
        problems.append(f"net.rtt_ms count {metrics['net.rtt_ms']['count']} "
                        f"!= net.exchanges {exchanges}")
    if "serve.rcode" in count and count["serve.rcode"] != metrics["serve.latency_ms"]["count"]:
        problems.append(f"serve.rcode {count['serve.rcode']} != serve.latency_ms count "
                        f"{metrics['serve.latency_ms']['count']}")
    return problems


def _metrics(tmp_path, name, *args) -> dict:
    out = tmp_path / "metrics.json"
    assert main(["run", name, *args, "--quiet", "--metrics", str(out)]) == 0
    return json.loads(out.read_text())["metrics"]


@pytest.mark.parametrize("parallel", [1, 4])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_campaign_conserves_queries(name, parallel, tmp_path, capsys):
    metrics = _metrics(tmp_path, name, *ORACLE[name][0], "--parallel", str(parallel))
    assert conservation_problems(metrics) == []
    assert metrics["net.exchanges"]["value"] > 0
    assert sorted(set(metrics) - DOCUMENTED) == []


_ANICUY = build_uy_world().world.address_of("a.nic.uy")
_NS1_GOOGLE = build_googleco_world().address_of("ns1.google.com")

#: kind -> (campaign, the window's fields, instruments it must raise
#: above the unfaulted run: ``name`` or ``name{label}``).  Windows span the
#: ``ORACLE`` run (1,200 s; push runs 900 s).
FAULT_CASES = {
    "loss": ("t2-uy", dict(rate=0.3), (
        "faults.injected{loss}", "net.retries", "net.timeouts")),
    "delay": ("t2-uy", dict(delay_ms=250.0), ("faults.injected{delay}",)),
    "blackhole": ("t2-uy", dict(target=_ANICUY), (
        "faults.injected{blackhole}", "net.timeouts")),
    "server_outage": ("t2-googleco", dict(target=_NS1_GOOGLE), (
        "faults.injected{server_outage}", "resolver.failovers", "net.timeouts")),
    "servfail": ("t2-uy", dict(target=_ANICUY), ("faults.injected{servfail}",)),
    "truncate": ("t2-uy", dict(target=_ANICUY), ("faults.injected{truncate}",)),
    "ratelimit": ("t2-uy", dict(target=_ANICUY, rate=0.0), (
        "faults.injected{ratelimit}",)),
    "anycast_site_down": ("t2-anicuy", dict(site="a.nic.uy"), (
        "faults.injected{anycast_site_down}", "net.timeouts")),
    "resolver_restart": ("t2-uy", dict(start=600.0, duration=0.0), (
        "faults.injected{resolver_restart}", "resolver.restarts")),
    "upstream_storm": ("t2-uy", dict(start=300.0, duration=300.0), (
        "faults.injected{upstream_storm}", "net.timeouts")),
    "record_change": ("push", dict(
        target="www.pushed.example.", start=450.0, duration=0.0,
    ), ("faults.injected{record_change}", "push.notifications")),
}


def _reading(metrics: dict, instrument: str) -> int:
    name, _, label = instrument.rstrip("}").partition("{")
    metric = metrics.get(name)
    if metric is None:
        return 0
    return metric["values"].get(label, 0) if label else metric["value"]


@pytest.fixture(scope="module")
def unfaulted(tmp_path_factory):
    """campaign -> its unfaulted ``ORACLE`` run's metrics, run once."""
    runs: dict = {}

    def metrics(campaign: str) -> dict:
        if campaign not in runs:
            out = tmp_path_factory.mktemp(campaign)
            runs[campaign] = _metrics(out, campaign, *ORACLE[campaign][0])
        return runs[campaign]

    return metrics


@pytest.mark.parametrize("kind", KINDS)
def test_a_faulted_campaign_accounts_for_every_drop(kind, unfaulted, tmp_path, capsys):
    campaign, fields, instruments = FAULT_CASES[kind]
    window = dict(start=0.0, duration=1200.0) | fields
    plan = FaultPlan(faults=(FaultSpec(kind=kind, **window),), name=kind, seed=7)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json(), encoding="ascii")
    metrics = _metrics(tmp_path, campaign, *ORACLE[campaign][0], "--faults", str(plan_file))
    assert conservation_problems(metrics) == []
    assert sorted(set(metrics) - DOCUMENTED) == []
    baseline = unfaulted(campaign)
    moved = {
        instrument: (_reading(baseline, instrument), _reading(metrics, instrument))
        for instrument in instruments
    }
    assert all(after > before for before, after in moved.values()), moved


def test_a_served_query_mix_names_only_documented_metrics():
    frontend, registry = build_frontend(ServeConfig(world="nl"), wall_clock=lambda: 0.0)
    query = Message.make_query("www.domain1.nl.", RdataType.A, id=1).to_wire()
    for _ in range(2):  # a slow-path miss, then a memo hit
        if frontend.fast_answer(query, "10.0.0.1") is None:
            frontend.handle_wire(query, "10.0.0.1")
    asyncio.run(ServeServer(frontend).stop())  # collects serve.inflight_peak
    metrics = registry.snapshot().to_payload()["metrics"]
    assert metrics["serve.memo_hits"]["value"] == 1
    assert metrics["serve.inflight_peak"]["value"] == 0
    assert conservation_problems(metrics) == []
    assert sorted(set(metrics) - DOCUMENTED) == []
