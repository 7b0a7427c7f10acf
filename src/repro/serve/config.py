"""Serving configuration and frontend assembly.

A :class:`ServeConfig` names one of the canonical simulated worlds from
:mod:`repro.core.worlds` and the knobs of the live frontend;
:func:`build_frontend` turns it into a ready :class:`DnsFrontend` backed
by a fresh world, resolver, and metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.worlds import (
    World,
    build_cl_world,
    build_controlled_world,
    build_googleco_world,
    build_nl_world,
    build_uy_world,
)
from repro.dns.message import DEFAULT_EDNS_PAYLOAD
from repro.dns.rdtypes import RdataType
from repro.metrics import MetricsRegistry
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver
from repro.serve.bridge import WallClockBridge
from repro.serve.frontend import DnsFrontend
from repro.serve.memo import ResponseMemo
from repro.server.querylog import QueryLogWriter
from repro.server.rrl import ResponseRateLimiter

#: Canonical worlds a live server can front.  Wrapper dataclasses
#: (NlWorld, UyWorld, ...) are unwrapped to the underlying World.
WORLD_BUILDERS: dict[str, Callable[[int], World]] = {
    "cl": lambda seed: build_cl_world(seed=seed),
    "uy": lambda seed: build_uy_world(seed=seed).world,
    "googleco": lambda seed: build_googleco_world(seed=seed),
    "nl": lambda seed: build_nl_world(seed=seed).world,
    "controlled": lambda seed: build_controlled_world(seed=seed).world,
}


@dataclass
class ServeConfig:
    """Everything `repro serve` needs to bring up one worker."""

    world: str = "nl"
    seed: int = 0
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (single worker only)
    workers: int = 1
    #: Queries admitted but not yet answered before shedding kicks in.
    max_inflight: int = 256
    #: Per-client responses per second; 0 disables RRL.
    rrl_rate: int = 0
    #: Largest UDP response we will send, EDNS or not.
    max_udp_payload: int = DEFAULT_EDNS_PAYLOAD
    #: Sim seconds per wall second (tests use >1 to age TTLs quickly).
    time_scale: float = 1.0
    #: Enable repro.predict: refresh-ahead for hot names plus RFC 8767
    #: stale-while-revalidate instead of SERVFAIL on dead upstreams.
    predict: bool = False
    #: Accept RFC 7871 ECS options from clients, attach them upstream,
    #: and cache scoped answers per subnet (--ecs).  Off by default so
    #: the serving hot path stays byte-identical without it.
    ecs: bool = False
    #: False disables the encode-once response memo (--no-memo).
    memo: bool = True
    #: Resolve the top-N hot names into each worker's cache before it
    #: starts accepting traffic (SO_REUSEPORT workers have private
    #: caches, so without this every worker re-pays the cold start).
    prewarm: int = 0
    querylog_path: Optional[str] = None
    metrics_path: Optional[str] = None
    server_name: str = "serve"

    def __post_init__(self) -> None:
        if self.world not in WORLD_BUILDERS:
            known = ", ".join(sorted(WORLD_BUILDERS))
            raise ValueError(f"unknown world {self.world!r} (have: {known})")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, not {self.workers}")
        if self.workers > 1 and self.port == 0:
            raise ValueError(
                "SO_REUSEPORT sharding needs an explicit --port; an ephemeral "
                "port would give every worker a different socket"
            )
        if self.max_inflight < 1:
            raise ValueError(f"in-flight budget must be positive, not {self.max_inflight}")
        if self.prewarm < 0:
            raise ValueError(f"prewarm count must be >= 0, not {self.prewarm}")


def build_frontend(
    config: ServeConfig,
    wall_clock: Optional[Callable[[], float]] = None,
    worker_index: int = 0,
) -> tuple[DnsFrontend, MetricsRegistry]:
    """Build a world, resolver, and frontend for one serving worker.

    Each worker owns a private world and cache (the sim stack is
    single-threaded by design); SO_REUSEPORT spreads clients across them
    the way an anycast site spreads catchments.
    """
    registry = MetricsRegistry()
    world = WORLD_BUILDERS[config.world](config.seed + worker_index)
    # Nothing in serve reads an authoritative query log, and it would
    # grow by one entry per upstream query for the worker's lifetime.
    world.keep_query_logs(False)
    world.network.attach_metrics(registry)
    policy = (
        ResolverPolicy.predictive()
        if config.predict
        else ResolverPolicy.child_centric()
    )
    if config.ecs:
        policy = policy.with_(ecs=True)
    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(
            Region.EU, name=f"{config.server_name}-resolver"
        ),
        network=world.network,
        root_hints=world.hints,
        root_zone=world.root_zone,
        policy=policy,
    )
    querylog = None
    if config.querylog_path:
        path = config.querylog_path
        if config.workers > 1:
            path = f"{path}.worker{worker_index}"
        querylog = QueryLogWriter(path)
    frontend = DnsFrontend(
        resolver=resolver,
        bridge=WallClockBridge(time_scale=config.time_scale, wall_clock=wall_clock),
        registry=registry,
        rrl=ResponseRateLimiter(rate=config.rrl_rate),
        querylog=querylog,
        max_udp_payload=config.max_udp_payload,
        server_name=(
            config.server_name
            if config.workers == 1
            else f"{config.server_name}:{worker_index}"
        ),
        memo=ResponseMemo() if config.memo else None,
    )
    if config.prewarm > 0:
        _prewarm(frontend, config)
    return frontend, registry


def _prewarm(frontend: DnsFrontend, config: ServeConfig) -> None:
    """Resolve the hot set into the worker's cache before it serves.

    Rank 0 is the most popular name under the Zipf workloads (the
    loadgen default over the nl world), so warming ranks
    ``0..prewarm-1`` front-loads exactly the names the memo will live
    on.  Failures are ignored — a name the world cannot resolve
    warms nothing but breaks nothing.
    """
    now = frontend.bridge.now()
    resolver = frontend.resolver
    for rank in range(config.prewarm):
        try:
            resolver.resolve(f"www.domain{rank}.nl.", RdataType.A, now=now)
        except Exception:
            continue
