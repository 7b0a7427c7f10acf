"""Periodic DNS measurements from every vantage point.

A :class:`MeasurementSpec` mirrors a RIPE Atlas DNS measurement: a query
(name may contain the ``PROBEID`` placeholder, as the paper's §4
experiments use to defeat caching), an interval, and a duration.  The
scheduler issues one query per VP per round, with a stable per-VP start
offset inside the interval (Atlas spreads probes' queries in time), and
fires scheduled world *events* (renumbering, TTL changes, taking servers
down) between queries in global time order.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.atlas.probe import VantagePoint
from repro.atlas.results import (
    CACHE_HIT, SERVED_STALE, TTL_NONE, Columns, ResultSet, VpRow,
)


@dataclass(frozen=True)
class MeasurementSpec:
    """One Atlas-style recurring DNS measurement."""

    qname: str
    qtype: RdataType
    interval: float = 600.0
    duration: float = 7200.0
    start: float = 0.0
    #: Spread each VP's queries by a stable random offset within the
    #: interval (True matches Atlas scheduling).
    jitter: bool = True
    description: str = ""

    def rounds(self) -> int:
        return int(self.duration // self.interval)

    def qname_for(self, probe_id: int) -> Name:
        """Substitute the PROBEID placeholder (paper §4.2)."""
        return Name(self.qname.replace("PROBEID", f"p{probe_id}"))


@dataclass(frozen=True)
class ScheduledEvent:
    """A world mutation fired at a fixed virtual time during a run."""

    at: float
    action: Callable[[], None]
    label: str = ""


@dataclass
class MeasurementState:
    """A picklable mid-run cursor for :meth:`Measurement.run`.

    Everything the flattened kernel needs to continue from query
    ``position``: the results so far and how many events have fired.
    The schedule itself is *recomputed* on resume — it is a pure
    function of (spec, vantage points, seed), which a pickled
    :class:`Measurement` carries.  ``results`` is the live table the
    kernel is filling, sized for the whole run: rows from ``position``
    on are still zero (pickle it immediately, don't keep it).
    """

    position: int
    event_index: int
    results: ResultSet


@dataclass
class Measurement:
    """Runs a spec against a set of vantage points."""

    spec: MeasurementSpec
    vantage_points: list[VantagePoint]
    events: list[ScheduledEvent] = field(default_factory=list)
    seed: int = 0
    #: Optional telemetry hook, called as ``progress(done, total)`` every
    #: ``progress_every`` queries and once at the end of the run.  The
    #: ``repro run`` CLI and the runner's serial fallback use it to drive
    #: :class:`repro.runner.progress.ProgressTracker` displays.
    progress: Optional[Callable[[int, int], None]] = None
    progress_every: int = 1000

    def schedule(self, at: float, action: Callable[[], None], label: str = "") -> None:
        self.events.append(ScheduledEvent(at=at, action=action, label=label))

    def run(
        self,
        *,
        resume: Optional[MeasurementState] = None,
        checkpoint_every: int = 0,
        checkpoint: Optional[Callable[[MeasurementState], None]] = None,
    ) -> ResultSet:
        """Execute every round; returns the collected results.

        The hot loop is flattened: all per-probe state (qnames, bound
        stub calls, probe/VP columns) and the full time-sorted schedule
        are precomputed once per campaign, and slots are evaluated
        strictly in schedule order.  Every slot draws its client leg
        from the VP's stub; a query whose answer a live cache entry
        alone decides is then answered right here from a *hit lease*
        (see :meth:`~repro.resolver.recursive.RecursiveResolver.hit_lease`):
        five cells of the preallocated table and no resolver frame.  All
        other slots go through :meth:`StubResolver.query`, after which
        the VP's resolver is asked for the lease on what it just
        answered.  The counters the leased hits would have bumped are
        added up per resolver and handed over
        (``count_leased_hits``) before any checkpoint, before any
        scheduled event and at the end of the run; an event may change
        anything, so firing one drops every lease.  Results, counters
        and RNG draw order are those of the per-query loop.

        ``checkpoint`` (with ``checkpoint_every > 0``) is called with a
        :class:`MeasurementState` every that-many queries — the world
        snapshot hook.  ``resume`` continues a previous run from its
        cursor; the prelude (offsets, schedule) is deterministically
        recomputed and leases are simply taken out again, so only the
        cursor and results need to have been saved.
        """
        spec = self.spec
        vps = self.vantage_points
        interval = spec.interval
        jitter = spec.jitter
        rng = random.Random(self.seed ^ 0x3EA5)
        # Historical draw order: one uniform per VP, in VP order, only
        # when jitter is on (`jitter and ...` must not draw otherwise).
        offsets = [
            (rng.uniform(0.0, interval) if jitter else 0.0) for _ in vps
        ]

        # Flattened schedule: slot r*n+v is (round r, vp v); run in time
        # order so cache warm-up across VPs sharing a resolver is
        # realistic.  sorted() is stable, matching the historical
        # list.sort over round-major tuples.
        n_vps = len(vps)
        rounds = spec.rounds()
        total = rounds * n_vps
        times = [0.0] * total
        start = spec.start
        pos = 0
        for round_index in range(rounds):
            round_start = start + round_index * interval
            for v in range(n_vps):
                times[pos] = round_start + offsets[v]
                pos += 1
        order = sorted(range(total), key=times.__getitem__)

        # Per-VP values, hoisted out of the hot loop.  Each probe asks
        # the same name every round: resolve the PROBEID substitution
        # once per probe and share it across all rounds.
        leg_fns = [vp.stub.client_leg_rtt for vp in vps]
        query_fns = [vp.stub.query for vp in vps]
        qtype = spec.qtype
        qname_memo: dict[int, Name] = {}
        qnames: list[Name] = []
        for vp in vps:
            probe_id = vp.probe.probe_id
            qname = qname_memo.get(probe_id)
            if qname is None:
                qname = spec.qname_for(probe_id)
                qname_memo[probe_id] = qname
            qnames.append(qname)

        # Hit leases.  VPs that ask the same resolver the same name share
        # one cell ``[entry, generation, answer index]``; ``entry`` is
        # ``None`` while the cell holds no lease.  ``leased[r]`` counts
        # the hits answered from leases on the resolver in slot ``r`` since
        # its counters were last brought up to date.
        lease_fns = [vp.stub.resolver.hit_lease for vp in vps]
        resolver_slot: dict = {}
        cell_memo: dict = {}
        slot_of: list[int] = []
        cells: list[list] = []
        for vp, qname in zip(vps, qnames):
            slot = resolver_slot.setdefault(vp.stub.resolver, len(resolver_slot))
            slot_of.append(slot)
            cells.append(cell_memo.setdefault((slot, qname), [None, 0, 0]))
        leased = [0] * len(resolver_slot)

        def settle_leased_hits() -> None:
            for resolver, slot in resolver_slot.items():
                if leased[slot]:
                    resolver.count_leased_hits(leased[slot])
                    leased[slot] = 0

        pending_events = sorted(self.events, key=lambda event: event.at)
        n_events = len(pending_events)
        # With a sentinel, so "is the next event due" is one comparison.
        event_times = [event.at for event in pending_events] + [float("inf")]
        if resume is not None:
            results = resume.results
            event_index = resume.event_index
            first = resume.position
        else:
            # The table for the whole run: the schedule fixes three
            # columns now, the loop assigns the other five by index.
            results = ResultSet.from_table(
                [
                    VpRow(vp.probe.probe_id, vp.vp_id, vp.resolver_address,
                          vp.probe.region, vp.probe.asn, qname, qtype)
                    for vp, qname in zip(vps, qnames)
                ],
                Columns.zeros(total)._replace(
                    vp=array("i", [slot % n_vps for slot in order]),
                    round_index=array("i", [slot // n_vps for slot in order]),
                    timestamp=array("d", [times[slot] for slot in order]),
                ),
                [()],
                spec,
            )
            event_index = 0
            first = 0
        vp_of, _, timestamps, rcodes, ttls, answer_of, rtts, flags = results.columns

        # Answer tuples repeat massively (cache hits return the same
        # rrset), so memoize the table index per rdata tuple, keyed by its
        # id (hashed in C; the tuple rides in the value, so the id is never
        # reused).  Index 0 is ``()``, which a zeroed cell already names.
        answer_tuples = results.answer_tuples
        answer_index = {answers: index for index, answers in enumerate(answer_tuples)}
        answer_memo: dict = {}

        # Ticks: a progress call every ``progress_every`` queries and a
        # checkpoint every ``checkpoint_every`` — a step of 0 (or less)
        # never comes due.  The loop tests one number: the next slot
        # after which either does.
        progress = self.progress
        progress_step = self.progress_every if progress is not None else 0
        checkpoint_step = checkpoint_every if checkpoint is not None else 0

        def stop_after(done: int) -> int:
            """The slot whose query is the next one a tick follows."""
            return min(
                (done // step + 1) * step - 1 if step > 0 else total
                for step in (progress_step, checkpoint_step)
            )

        next_stop = stop_after(first)
        noerror = Rcode.NOERROR
        for i in range(first, total):
            timestamp = timestamps[i]
            v = vp_of[i]
            if event_times[event_index] <= timestamp:
                settle_leased_hits()
                while event_times[event_index] <= timestamp:
                    pending_events[event_index].action()
                    event_index += 1
                for cell in cell_memo.values():
                    cell[0] = None
            leg = leg_fns[v]()
            cell = cells[v]
            entry = cell[0]
            if (
                entry is not None
                and entry.generation == cell[1]
                # The instant the query reaches the resolver, as the stub
                # computes it: the lease answers hits, never an expiry.
                and (now := timestamp + leg / 2.0) < entry.expires_at
            ):
                ttls[i] = int(entry.expires_at - now)
                answer_of[i] = cell[2]
                rcodes[i] = noerror
                rtts[i] = leg
                flags[i] = CACHE_HIT
                leased[slot_of[v]] += 1
            else:
                qname = qnames[v]
                answer = query_fns[v](qname, qtype, timestamp, leg)
                rrsets = answer.answers
                if not rrsets:
                    ttls[i] = TTL_NONE
                else:
                    # Several rrsets (a CNAME chain) are rendered every time.
                    rdatas = rrsets[0].rdatas if len(rrsets) == 1 else None
                    known = answer_memo.get(id(rdatas))
                    if known is not None and known[0] is rdatas:
                        index = known[1]
                    else:
                        answers = tuple(
                            str(rdata) for rrset in rrsets for rdata in rrset.rdatas
                        )
                        index = answer_index.get(answers)
                        if index is None:
                            index = answer_index[answers] = len(answer_tuples)
                            answer_tuples.append(answers)
                        if rdatas is not None:
                            answer_memo[id(rdatas)] = (rdatas, index)
                    answer_of[i] = index
                    ttls[i] = rrsets[-1].ttl
                    if rdatas is not None:
                        # One record set answered: ask for the lease on it.
                        # Taken only when the entry holds the very rdatas
                        # just recorded (a refused write leaves other data
                        # cached): ``index`` is then its answer index too.
                        entry = lease_fns[v](qname, qtype)
                        if entry is not None and entry.rrset.rdatas is rdatas:
                            cell[0] = entry
                            cell[1] = entry.generation
                            cell[2] = index
                rcodes[i] = answer.rcode
                rtts[i] = answer.rtt
                flags[i] = answer.cache_hit * CACHE_HIT | answer.served_stale * SERVED_STALE
            if i == next_stop:
                done = i + 1
                if progress_step > 0 and done % progress_step == 0:
                    progress(done, total)
                if checkpoint_step > 0 and done % checkpoint_step == 0 and done < total:
                    settle_leased_hits()
                    checkpoint(
                        MeasurementState(
                            position=done, event_index=event_index, results=results
                        )
                    )
                next_stop = stop_after(done)
        settle_leased_hits()
        if progress is not None:
            progress(total, total)
        # Fire any events scheduled after the last query (end-of-run state).
        while event_index < n_events:
            pending_events[event_index].action()
            event_index += 1
        return results


def run_once(
    vantage_points: list[VantagePoint],
    qname: str,
    qtype: RdataType,
    at: float = 0.0,
) -> ResultSet:
    """One-shot measurement from every VP (no rounds, no jitter)."""
    spec = MeasurementSpec(qname=qname, qtype=qtype, interval=1.0, duration=1.0, start=at, jitter=False)
    measurement = Measurement(spec=spec, vantage_points=vantage_points)
    return measurement.run()
