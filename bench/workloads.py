"""The four workloads: inputs made from a seed, one round of work, output checks.

A workload splits a round into three steps so the harness can time, profile
or span-sample the middle one and nothing else:

- ``fresh()`` builds the state a round starts from (untimed);
- ``work(state)`` is the measured region; it returns the program's raw outputs;
- ``check(state, outputs)`` digests and verifies them (untimed).

Every round of a workload starts from an identical state and replays
identical inputs, so all rounds must produce the same digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import time
from dataclasses import dataclass
from typing import Any, Optional

#: Seconds between a vantage point's queries (the scenario's default).
CAMPAIGN_INTERVAL = 600.0
#: Queries the span sampler records; also the size of a span-sample round.
SPAN_REQUESTS = 256
CLIENT = "192.0.2.1"


@dataclass
class RoundCheck:
    """What one round produced, reduced to what the harness compares."""

    queries: int
    failed: int
    digest: str
    #: Exact counts read from ``repro.metrics`` and the outputs.
    counters: dict[str, int]
    #: Invariants that did not hold (empty when the round is correct).
    problems: list[str]
    #: Host nanoseconds per query at the frontend boundary (serve only).
    latencies_ns: Optional[list[int]] = None


def _counter_values(snapshot) -> dict[str, int]:
    """Flatten the sim-domain counters of a metrics snapshot."""
    flat: dict[str, int] = {}
    for name, payload in snapshot.without_host().metrics.items():
        if payload["kind"] == "counter":
            flat[name] = payload["value"]
        elif payload["kind"] == "labeled_counter":
            flat[name] = sum(payload["values"].values())
    return flat


def _digest(parts) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


# ---------------------------------------------------------------- campaigns

#: Every upstream query a resolver sends is one exchange on the network and
#: one query at an authoritative.
CONSERVED = ("resolver.upstream_queries", "net.exchanges", "auth.queries")


def conservation_problems(counters: dict[str, int]) -> list[str]:
    """A counter that is missing (renamed, say) breaks the check too."""
    values = [counters.get(name) for name in CONSERVED]
    if None not in values and len(set(values)) == 1:
        return []
    pairs = " ".join(f"{name}={value}" for name, value in zip(CONSERVED, values))
    return [f"conservation broken: {pairs}"]


class CampaignWorkload:
    """``scenario_uy_ns`` end to end: what ``repro run t2-uy`` executes.

    The seed *is* the input: it drives the world's latency draws and the
    probe population.  Everything from population build to the merged,
    validated result set is inside the measured region, because a user
    pays all of it on every campaign.
    """

    def __init__(
        self, name: str, seed: int, scale: float, child_ns_ttl: int, probes: int, duration: float
    ) -> None:
        self.name = name
        self.kwargs = dict(
            seed=seed,
            probes=max(4, round(probes * scale)),
            duration=duration,
            interval=CAMPAIGN_INTERVAL,
            child_ns_ttl=child_ns_ttl,
            parallelism=1,
            shards=4,
        )

    def fresh(self, sample: bool = False) -> dict[str, Any]:
        if sample:
            # Enough vantage points to issue SPAN_REQUESTS queries in a
            # handful of rounds; the sampler stops itself at the limit.
            return dict(self.kwargs, probes=8, duration=CAMPAIGN_INTERVAL * 40)
        return self.kwargs

    def work(self, state: dict[str, Any]):
        from repro.core.scenarios import scenario_uy_ns

        return scenario_uy_ns(**state)

    def setup_once(self) -> None:
        """Cold start to the first answered round: one query per vantage point."""
        run = self.work(dict(self.kwargs, duration=CAMPAIGN_INTERVAL))
        if run.summary["responses_valid"] < 1:
            raise RuntimeError("set-up round answered nothing")

    def check(self, state: dict[str, Any], run, verify: bool = True) -> RoundCheck:
        summary = run.summary
        queries = summary["queries"]
        rows = run.results.results
        counters = _counter_values(run.metrics)
        counters["atlas.client_hits"] = sum(1 for row in rows if row.cache_hit)
        digest = _digest(
            [
                repr(
                    [
                        (r.probe_id, r.round_index, r.rcode.name, r.ttl, r.answers, r.cache_hit)
                        for r in rows
                    ]
                ).encode(),
                json.dumps(counters, sort_keys=True).encode(),
            ]
        )
        problems = conservation_problems(counters)
        if queries < 1:
            problems.append("campaign issued no queries")
        return RoundCheck(
            queries=queries,
            # Timeouts, SERVFAILs, and answers the validity filter threw out.
            failed=queries - summary["responses_valid"],
            digest=digest,
            counters=counters,
            problems=problems,
        )


# -------------------------------------------------------------------- serve


class VirtualClock:
    """The ``wall_clock`` injected into the frontend's WallClockBridge.

    The replay loop sets ``t`` from the query index, so hit/miss/expiry
    sequences depend on the inputs and never on how fast the host ran.
    """

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def query_wire(qname: str, query_id: int) -> bytes:
    """A recursive A/IN query with an EDNS0 OPT (payload 1232), as dig sends."""
    out = bytearray(struct.pack(">HHHHHH", query_id, 0x0100, 1, 0, 0, 1))
    for label in qname.rstrip(".").split("."):
        out.append(len(label))
        out += label.encode("ascii")
    out += b"\x00" + struct.pack(">HH", 1, 1)
    out += b"\x00" + struct.pack(">HHIH", 41, 1232, 0, 0)
    return bytes(out)


def _skip_name(wire: bytes, offset: int) -> int:
    while True:
        length = wire[offset]
        if length >= 0xC0:
            return offset + 2
        offset += 1 + length
        if length == 0:
            return offset


def first_a_record(wire: bytes) -> Optional[tuple[int, bytes]]:
    """(ttl, rdata) of the first A/IN answer — a decoder of the benchmark's
    own, so the program's codec is not checked against itself."""
    _, _, qdcount, ancount, _, _ = struct.unpack_from(">HHHHHH", wire)
    offset = 12
    for _ in range(qdcount):
        offset = _skip_name(wire, offset) + 4
    for _ in range(ancount):
        offset = _skip_name(wire, offset)
        rdtype, rdclass, ttl, rdlength = struct.unpack_from(">HHIH", wire, offset)
        offset += 10
        if rdtype == 1 and rdclass == 1:
            return ttl, wire[offset : offset + rdlength]
        offset += rdlength
    return None


@dataclass
class ServeState:
    frontend: Any
    registry: Any
    clock: VirtualClock
    queries: list[bytes]
    latencies_ns: list[int]


class ServeWorkload:
    """Pre-encoded queries replayed through ``DnsFrontend`` the way
    ``ServeServer`` drives it: ``fast_answer`` first, ``handle_wire`` on a miss.

    Closed loop, one request in flight, in-process: no socket, no event loop.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        scale: float,
        names: int,
        prewarm: int,
        queries: int,
        step_s: float,
        time_scale: float,
    ) -> None:
        self.name = name
        self.seed = seed
        self.names = names
        self.prewarm = prewarm
        #: Virtual wall seconds between arrivals.
        self.step_s = step_s
        self.time_scale = time_scale
        self._expected: Optional[list[bytes]] = None
        count = max(SPAN_REQUESTS, round(queries * scale))
        rng = random.Random(seed)
        # Zipf(1.0) over ranks: rank r is drawn with weight 1/(r+1).
        weights = [1.0 / (rank + 1) for rank in range(self.names)]
        self.ranks = rng.choices(range(self.names), weights=weights, k=count)
        bodies = [query_wire(f"www.domain{rank}.nl.", 0)[2:] for rank in range(self.names)]
        self.queries = [
            rng.randrange(1 << 16).to_bytes(2, "big") + bodies[rank] for rank in self.ranks
        ]

    def fresh(self, sample: bool = False) -> ServeState:
        from repro.serve.config import ServeConfig, build_frontend

        clock = VirtualClock()
        frontend, registry = build_frontend(
            ServeConfig(
                world="nl",
                seed=self.seed,
                prewarm=self.prewarm,
                time_scale=self.time_scale,
            ),
            wall_clock=clock,
        )
        queries = self.queries[:SPAN_REQUESTS] if sample else self.queries
        return ServeState(frontend, registry, clock, queries, [0] * len(queries))

    def work(self, state: ServeState):
        fast_answer = state.frontend.fast_answer
        handle_wire = state.frontend.handle_wire
        clock = state.clock
        step = self.step_s
        queries = state.queries
        latencies = state.latencies_ns
        now_ns = time.perf_counter_ns
        responses: list[Optional[bytes]] = [None] * len(queries)
        for index, query in enumerate(queries):
            clock.t = index * step
            started = now_ns()
            wire = fast_answer(query, CLIENT)
            if wire is None:
                wire = handle_wire(query, CLIENT).wire
            latencies[index] = now_ns() - started
            responses[index] = wire
        return responses

    def setup_once(self) -> None:
        """Cold start to the first answered query."""
        state = self.fresh()
        state.queries = state.queries[:1]
        (wire,) = self.work(state)
        if wire is None:
            raise RuntimeError("set-up query got no response")

    def _expected_addresses(self) -> list[bytes]:
        """The zone's A rdata for every queried name, read from a world of
        the benchmark's own (world structure does not depend on the seed)."""
        import ipaddress

        from repro.core.worlds import build_nl_world
        from repro.dns.rdtypes import RdataType
        from repro.dns.zone import LookupStatus

        world = build_nl_world(self.seed).world
        expected = []
        for rank in range(self.names):
            found = world.zone(f"domain{rank}.nl.").lookup(f"www.domain{rank}.nl.", RdataType.A)
            if found.status is not LookupStatus.ANSWER:
                raise RuntimeError(f"zone has no A record for www.domain{rank}.nl.")
            expected.append(ipaddress.IPv4Address(str(found.rrsets[0].rdatas[0])).packed)
        return expected

    def check(self, state: ServeState, responses, verify: bool = True) -> RoundCheck:
        """Digest a round; with ``verify`` also decode every response (the
        harness verifies one round and holds the others to its digest)."""
        failed = self._count_failed(state.queries, responses) if verify else 0
        memo = state.frontend.memo
        counters = _counter_values(state.registry.snapshot())
        counters["serve.memo.hits"] = memo.hits
        counters["serve.memo.misses"] = memo.misses
        digest = _digest(
            [b"\x00" if wire is None else wire for wire in responses]
            + [json.dumps(counters, sort_keys=True).encode()]
        )
        return RoundCheck(
            queries=len(state.queries),
            failed=failed,
            digest=digest,
            counters=counters,
            problems=[],
            latencies_ns=state.latencies_ns,
        )

    def _count_failed(self, queries, responses) -> int:
        if self._expected is None:
            self._expected = self._expected_addresses()
        failed = 0
        # Identical bodies decode identically: verify each (rank, body) once.
        verified: dict[tuple[int, bytes], bool] = {}
        for query, rank, wire in zip(queries, self.ranks, responses):
            if wire is None or wire[:2] != query[:2]:
                failed += 1
                continue
            key = (rank, wire[2:])
            good = verified.get(key)
            if good is None:
                good = verified[key] = self._response_ok(query, wire, self._expected[rank])
            failed += not good
        return failed

    @staticmethod
    def _response_ok(query: bytes, wire: bytes, address: bytes) -> bool:
        if len(wire) < 12:
            return False
        bits = struct.unpack_from(">H", wire, 2)[0]
        if not bits & 0x8000 or bits & 0x020F:  # QR set, TC clear, rcode NOERROR
            return False
        question_end = _skip_name(query, 12) + 4
        if wire[12:question_end] != query[12:question_end]:
            return False
        try:
            answer = first_a_record(wire)
        except (struct.error, IndexError):
            return False
        # TTL 0 is legal: a cached record in its last second is served with it.
        return answer is not None and answer[1] == address and answer[0] <= 3600


#: name -> (class, parameters, why the workload is in the set).
SPECS = {
    "campaign_ttl86400": (
        CampaignWorkload,
        dict(child_ns_ttl=86400, probes=500, duration=36000.0),
        "long-TTL campaign: 99% resolver-cache hits, so cache get, stub, result rows "
        "and the runner codec do the work; network and authoritatives idle",
    ),
    "campaign_ttl60": (
        CampaignWorkload,
        dict(child_ns_ttl=60, probes=600, duration=12000.0),
        "same campaign one argument apart, short TTL: ~25% hits, ~2 upstream exchanges "
        "per query, so iteration, cache put/expiry, transport, authoritative and zone "
        "do the work",
    ),
    "serve_hot": (
        ServeWorkload,
        dict(names=200, prewarm=200, queries=200_000, step_s=100e-6, time_scale=1.0),
        "live frontend, Zipf over 200 prewarmed names at 10k qps of virtual time: ~98% "
        "memo hits, codec, cache and network nearly idle",
    ),
    "serve_churn": (
        ServeWorkload,
        dict(names=500, prewarm=0, queries=10_000, step_s=500e-6, time_scale=3600.0),
        "live frontend with every TTL ticked before reuse: memo is all writes and no "
        "hits, every query decodes, resolves and encodes, ~0.3 upstream exchanges per "
        "query",
    ),
}


def build(name: str, seed: int, scale: float = 1.0):
    """The named workload with its inputs generated from ``seed``."""
    workload_class, parameters, _ = SPECS[name]
    return workload_class(name, seed, scale, **parameters)
