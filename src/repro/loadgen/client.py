"""The wire-level UDP load generator.

Open-loop by default: send times come from a precomputed schedule and do
not wait for responses, so an overloaded server faces the arrival rate
it would face from real, mutually oblivious clients (closed-loop
generators flatter a slow server by self-throttling — kept here only as
a baseline mode).  Each in-flight query is matched to its response by
DNS message ID; a lost attempt waits ``timeout_s`` and is retransmitted
up to ``retries`` times, the flat ladder the simulated resolvers use.

Driving a *batched* server hard needs the generator itself to be cheap
and to look like many clients, so the hot path here mirrors the server's
tricks: query wires are encoded once per qname rank and re-stamped with
a fresh ID per send; ``parse_responses=False`` reads the rcode straight
from the header instead of running the full decoder; and ``sockets=N``
spreads queries over N source sockets — one connected UDP socket is one
SO_REUSEPORT flow, so a single-socket generator can only ever exercise
one worker no matter how many are listening.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.dns.wire import WireError
from repro.loadgen.arrivals import ZipfSampler, fixed_schedule, poisson_schedule
from repro.loadgen.report import LoadReport

#: DNS message IDs are 16-bit; one socket never has more outstanding.
_ID_SPACE = 0x10000


@dataclass
class LoadgenConfig:
    """One load-generation run against a live server."""

    host: str = "127.0.0.1"
    port: int = 53
    rate_qps: float = 100.0
    duration_s: float = 5.0
    #: ``open`` (scheduled arrivals) or ``closed`` (fixed concurrency).
    mode: str = "open"
    #: ``poisson`` or ``fixed`` inter-arrival gaps (open-loop only).
    arrivals: str = "poisson"
    #: Closed-loop only: how many queries are kept in flight.
    concurrency: int = 8
    #: Zipf popularity over this many distinct names.
    population: int = 500
    zipf_exponent: float = 1.0
    qname_template: str = "www.domain{}.nl."
    qtype: RdataType = RdataType.A
    seed: int = 0
    timeout_s: float = 2.0
    retries: int = 2
    use_edns: bool = True
    #: UDP source sockets to spread queries over (round-robin).  Each
    #: connected socket is one kernel flow, so SO_REUSEPORT servers need
    #: several to see traffic on more than one worker.
    sockets: int = 1
    #: Closed-loop only: stop after exactly this many queries instead of
    #: after ``duration_s``.  With ``concurrency=1`` the query sequence
    #: is fully deterministic — the byte-identity checks depend on that.
    count: Optional[int] = None
    #: False skips the response decoder: the rcode comes straight from
    #: header byte 3.  The throughput benches use this so the generator
    #: is never the bottleneck being measured.
    parse_responses: bool = True
    #: Write one line per answered query — sha256 of the response bytes
    #: with the ID zeroed — in arrival order.  ``cmp`` between two runs
    #: proves the answer bytes match.
    dump_responses: Optional[str] = None
    #: Attach an RFC 7871 ECS option sampling this many distinct client
    #: /24s (0 = no ECS).  Each query carries one subnet drawn uniformly,
    #: so a `repro serve --ecs` target sees a subnet-diverse client mix.
    ecs_subnets: int = 0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout {self.timeout_s} must be > 0")
        if self.retries < 0:
            raise ValueError(f"retries {self.retries} must be >= 0")
        if self.ecs_subnets < 0:
            raise ValueError(f"ecs_subnets must be >= 0, not {self.ecs_subnets}")
        if self.ecs_subnets > 4096:
            raise ValueError(
                f"ecs_subnets {self.ecs_subnets} exceeds the 4096 /24s in 172.16/12"
            )
        if self.ecs_subnets and not self.use_edns:
            raise ValueError("ECS rides in the OPT record; drop --no-edns")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be open or closed, not {self.mode!r}")
        if self.arrivals not in ("poisson", "fixed"):
            raise ValueError(f"arrivals must be poisson or fixed, not {self.arrivals!r}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, not {self.concurrency}")
        if self.sockets < 1:
            raise ValueError(f"need at least one socket, not {self.sockets}")
        if self.count is not None:
            if self.count < 1:
                raise ValueError(f"count must be >= 1, not {self.count}")
            if self.mode != "closed":
                raise ValueError("count runs are closed-loop; use mode='closed'")


class _LoadgenProtocol(asyncio.DatagramProtocol):
    """Matches responses to waiters by DNS message ID (one per socket)."""

    def __init__(self) -> None:
        self.waiters: dict[int, asyncio.Future] = {}
        self.malformed = 0
        self.unmatched = 0

    def datagram_received(self, data: bytes, addr) -> None:
        if len(data) < 12:
            self.malformed += 1
            return
        message_id = (data[0] << 8) | data[1]
        future = self.waiters.pop(message_id, None)
        if future is None:
            self.unmatched += 1  # a late retransmit's answer; fine
            return
        if not future.done():
            future.set_result(data)

    def error_received(self, exc: Exception) -> None:  # ICMP errors
        pass


@dataclass
class _Endpoint:
    """One source socket: its transport, waiter table, and ID cursor."""

    protocol: _LoadgenProtocol
    transport: asyncio.DatagramTransport
    next_id: int = 0

    def take_id(self) -> int:
        waiters = self.protocol.waiters
        for _ in range(_ID_SPACE):
            candidate = self.next_id
            self.next_id = (self.next_id + 1) % _ID_SPACE
            if candidate not in waiters:
                return candidate
        raise RuntimeError("all 65536 message IDs are in flight on one socket")


@dataclass
class _Outcome:
    """What one query attempt-chain produced."""

    latency_ms: Optional[float]  # None = lost after all retries
    attempts: int
    rcode: Optional[int] = None
    parse_error: bool = False


class LoadGenerator:
    """Drives one :class:`LoadgenConfig` run and produces a report."""

    def __init__(self, config: LoadgenConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.sampler = ZipfSampler(config.population, config.zipf_exponent)
        self._endpoints: list[_Endpoint] = []
        self._round_robin = 0
        #: Encode-once query wires by (qname rank, ECS subnet index — -1
        #: when ECS is off), ID zeroed; sends stamp a fresh ID over the
        #: first two octets.
        self._wire_cache: dict[tuple[int, int], bytes] = {}
        self._digests: Optional[list[str]] = [] if config.dump_responses else None

    # -- wire helpers ------------------------------------------------------
    def _query_wire(self, rank: int, message_id: int, subnet: int = -1) -> bytes:
        key = (rank, subnet)
        base = self._wire_cache.get(key)
        if base is None:
            query = Message.make_query(
                self.config.qname_template.format(rank), self.config.qtype, id=0
            )
            if self.config.use_edns:
                if subnet >= 0:
                    from repro.dns.ecs import ClientSubnet

                    network = f"172.{16 + (subnet >> 8)}.{subnet & 255}.0"
                    query.use_edns(
                        options=ClientSubnet.from_ip(network, 24).to_wire()
                    )
                else:
                    query.use_edns()
            base = query.to_wire()
            self._wire_cache[key] = base
        return message_id.to_bytes(2, "big") + base[2:]

    async def _query_once(self) -> _Outcome:
        """Send one query, retransmitting after each ``timeout_s``."""
        endpoint = self._endpoints[self._round_robin % len(self._endpoints)]
        self._round_robin += 1
        message_id = endpoint.take_id()
        rank = self.sampler.rank(self.rng)
        subnet = (
            self.rng.randrange(self.config.ecs_subnets)
            if self.config.ecs_subnets
            else -1
        )
        wire = self._query_wire(rank, message_id, subnet)
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        timeout_s, retries = self.config.timeout_s, self.config.retries
        for attempt in range(retries + 1):
            future: asyncio.Future = loop.create_future()
            endpoint.protocol.waiters[message_id] = future
            endpoint.transport.sendto(wire)
            try:
                data = await asyncio.wait_for(future, timeout=timeout_s)
            except asyncio.TimeoutError:
                endpoint.protocol.waiters.pop(message_id, None)
                continue
            latency_ms = (time.monotonic() - started) * 1000.0
            if self._digests is not None:
                self._digests.append(
                    hashlib.sha256(b"\x00\x00" + data[2:]).hexdigest()
                )
            if not self.config.parse_responses:
                # Header-only read: rcode is the low nibble of byte 3.
                # The protocol already rejected anything under 12 octets.
                return _Outcome(latency_ms, attempt + 1, rcode=data[3] & 0x0F)
            try:
                response = Message.from_wire(data)
            except (WireError, ValueError):
                return _Outcome(latency_ms, attempt + 1, parse_error=True)
            return _Outcome(latency_ms, attempt + 1, rcode=int(response.rcode))
        return _Outcome(None, retries + 1)

    # -- run modes ---------------------------------------------------------
    async def run(self) -> LoadReport:
        """Execute the configured run against the live server."""
        config = self.config
        loop = asyncio.get_running_loop()
        for _ in range(config.sockets):
            protocol = _LoadgenProtocol()
            transport, _ = await loop.create_datagram_endpoint(
                lambda protocol=protocol: protocol,
                remote_addr=(config.host, config.port),
            )
            self._endpoints.append(
                _Endpoint(protocol, transport, next_id=self.rng.randrange(_ID_SPACE))
            )
        started = time.monotonic()
        try:
            if config.mode == "open":
                outcomes = await self._run_open()
            else:
                outcomes = await self._run_closed()
        finally:
            for endpoint in self._endpoints:
                endpoint.transport.close()
        wall_s = time.monotonic() - started
        if self._digests is not None:
            assert config.dump_responses is not None
            with open(config.dump_responses, "w", encoding="utf-8") as stream:
                stream.writelines(digest + "\n" for digest in self._digests)
        rcodes: dict[int, int] = {}
        for outcome in outcomes:
            if outcome.rcode is not None:
                rcodes[outcome.rcode] = rcodes.get(outcome.rcode, 0) + 1
        return LoadReport.from_outcomes(
            mode=config.mode,
            offered_qps=config.rate_qps,
            wall_s=wall_s,
            latencies_ms=[o.latency_ms for o in outcomes if o.latency_ms is not None],
            lost=sum(1 for o in outcomes if o.latency_ms is None),
            attempts=sum(o.attempts for o in outcomes),
            rcodes=rcodes,
            parse_errors=sum(1 for o in outcomes if o.parse_error)
            + sum(endpoint.protocol.malformed for endpoint in self._endpoints),
        )

    async def _run_open(self) -> list[_Outcome]:
        config = self.config
        if config.arrivals == "poisson":
            schedule = poisson_schedule(config.rate_qps, config.duration_s, self.rng)
        else:
            schedule = fixed_schedule(config.rate_qps, config.duration_s)
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        tasks = []
        for send_at in schedule:
            delay = epoch + send_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._query_once()))
        return list(await asyncio.gather(*tasks))

    async def _run_closed(self) -> list[_Outcome]:
        """Baseline mode: ``concurrency`` workers, each waiting its turn.

        A ``count`` budget takes precedence over the wall-clock deadline;
        with one worker the resulting query sequence (and so the server's
        querylog and the response digests) is deterministic.
        """
        config = self.config
        outcomes: list[_Outcome] = []

        if config.count is not None:
            remaining = config.count

            async def counted_worker() -> None:
                nonlocal remaining
                while remaining > 0:
                    remaining -= 1
                    outcomes.append(await self._query_once())

            await asyncio.gather(
                *(counted_worker() for _ in range(config.concurrency))
            )
            return outcomes

        deadline = asyncio.get_running_loop().time() + config.duration_s

        async def worker() -> None:
            while asyncio.get_running_loop().time() < deadline:
                outcomes.append(await self._query_once())

        await asyncio.gather(*(worker() for _ in range(config.concurrency)))
        return outcomes


def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Synchronous entry point for the CLI and benches."""
    return asyncio.run(LoadGenerator(config).run())
