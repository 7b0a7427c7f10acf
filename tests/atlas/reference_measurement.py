"""The per-query probe loop, kept as the reference.

This is ``Measurement.run`` as it stood before the hit lease (commit
bc7639f), body unchanged: every slot of the schedule — hit or miss — goes
through ``StubResolver.query`` and the resolver's whole client path, and
the progress and checkpoint ticks are tested on every query.  It takes
the measurement as ``self`` so it can stand in for the method:
``tests/core/test_reference_equivalence.py`` swaps it into every
registered campaign, ``tests/atlas/test_hit_lease.py`` runs it beside the
leasing kernel on twin worlds.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, Optional

from repro.atlas.measurement import Measurement, MeasurementState
from repro.atlas.results import (
    CACHE_HIT, SERVED_STALE, TTL_NONE, Columns, ResultSet, VpRow,
)
from repro.dns.name import Name


def reference_run(
    self: Measurement,
    *,
    resume: Optional[MeasurementState] = None,
    checkpoint_every: int = 0,
    checkpoint: Optional[Callable[[MeasurementState], None]] = None,
) -> ResultSet:
    """Execute every round; returns the collected results.

    The hot loop is flattened: all per-probe state (qnames, bound
    stub queries, probe/VP columns) and the full time-sorted
    schedule are precomputed once per campaign, so each query costs
    one stub call plus five cells of a preallocated table.  The RNG
    draw order is byte-identical to the historical per-probe loop.

    ``checkpoint`` (with ``checkpoint_every > 0``) is called with a
    :class:`MeasurementState` every that-many queries — the world
    snapshot hook.  ``resume`` continues a previous run from its
    cursor; the prelude (offsets, schedule) is deterministically
    recomputed, so only the cursor and results need to have been
    saved.
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

    pending_events = sorted(self.events, key=lambda event: event.at)
    n_events = len(pending_events)
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
    # rrset), so memoize the table index per rdata tuple — rdatas
    # are frozen dataclasses, hashable by value.  Index 0 is ``()``,
    # which a zeroed cell already names.
    answer_tuples = results.answer_tuples
    answer_index = {answers: index for index, answers in enumerate(answer_tuples)}
    answer_memo: dict = {}
    progress = self.progress
    progress_every = self.progress_every
    for i in range(first, total):
        timestamp = timestamps[i]
        v = vp_of[i]
        while event_index < n_events and pending_events[event_index].at <= timestamp:
            pending_events[event_index].action()
            event_index += 1
        answer = query_fns[v](qnames[v], qtype, timestamp)
        rrsets = answer.answers
        if not rrsets:
            ttls[i] = TTL_NONE
        else:
            # Several rrsets (a CNAME chain) are rendered every time.
            rdatas = rrsets[0].rdatas if len(rrsets) == 1 else None
            index = answer_memo.get(rdatas)
            if index is None:
                answers = tuple(
                    str(rdata) for rrset in rrsets for rdata in rrset.rdatas
                )
                index = answer_index.get(answers)
                if index is None:
                    index = answer_index[answers] = len(answer_tuples)
                    answer_tuples.append(answers)
                if rdatas is not None:
                    answer_memo[rdatas] = index
            answer_of[i] = index
            ttls[i] = rrsets[-1].ttl
        rcodes[i] = answer.rcode
        rtts[i] = answer.rtt
        flags[i] = answer.cache_hit * CACHE_HIT | answer.served_stale * SERVED_STALE
        done = i + 1
        if progress is not None and done % progress_every == 0:
            progress(done, total)
        if (
            checkpoint is not None
            and checkpoint_every > 0
            and done % checkpoint_every == 0
            and done < total
        ):
            checkpoint(
                MeasurementState(
                    position=done, event_index=event_index, results=results
                )
            )
    if progress is not None:
        progress(total, total)
    # Fire any events scheduled after the last query (end-of-run state).
    while event_index < n_events:
        pending_events[event_index].action()
        event_index += 1
    return results
