"""Parent/child centricity classification.

Active view (§3.2/§3.3): classify each observed TTL against the known
parent and child values.  A response at or below the child TTL is
child-centric; one above the child TTL (up to the parent's) is
parent-centric; a response exactly at a known cap (21599 s) is capped.

Passive view (§3.4): classify (resolver, qname) groups at an authoritative
server by query count and interarrival — groups re-querying well before
the parent TTL must be honouring the (shorter) child TTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass
class CentricityBreakdown:
    """Fractions of answers/groups per centricity class."""

    total: int = 0
    child: int = 0
    parent: int = 0
    capped: int = 0
    other: int = 0
    full_parent_ttl: int = 0  # answers showing the parent TTL uncut

    def fraction(self, count: int) -> float:
        return count / self.total if self.total else 0.0

    @property
    def child_fraction(self) -> float:
        return self.fraction(self.child)

    @property
    def parent_fraction(self) -> float:
        return self.fraction(self.parent)

    @property
    def capped_fraction(self) -> float:
        return self.fraction(self.capped)


def classify_active_ttls(
    ttls: Iterable[int],
    parent_ttl: int,
    child_ttl: int,
    caps: Sequence[int] = (21599,),
) -> CentricityBreakdown:
    """Classify observed answer TTLs (the §3.2 methodology).

    Assumes ``child_ttl < parent_ttl`` (the interesting configuration the
    paper picks its targets for).  Responses can show any *remaining* TTL
    up to the configured value, so classes are ranges, not points.
    """
    if child_ttl >= parent_ttl:
        raise ValueError(
            f"classification needs child_ttl < parent_ttl, got {child_ttl} >= {parent_ttl}"
        )
    breakdown = CentricityBreakdown()
    for ttl in ttls:
        breakdown.total += 1
        if ttl in caps and child_ttl < ttl:
            breakdown.capped += 1
        elif ttl <= child_ttl:
            breakdown.child += 1
        elif ttl <= parent_ttl:
            breakdown.parent += 1
            if ttl == parent_ttl:
                breakdown.full_parent_ttl += 1
        else:
            breakdown.other += 1
    return breakdown


def classify_capped_or_child(
    ttls: Iterable[int],
    parent_ttl: int,
    child_ttl: int,
    cap: int = 21599,
) -> CentricityBreakdown:
    """Variant for the google.co case where child > parent (§3.3).

    There, answers *above the cap* must come from the child (an uncapped
    child TTL of 4 days cannot decay below 21599 s within the experiment's
    hour); answers in ``(parent_ttl, cap]`` come from capping resolvers
    (fresh caps show exactly 21599 s, warm caches the remaining time); and
    answers at or below the parent TTL are parent-shaped (the paper reports
    "about 9 % ... a TTL of exactly 900 s, suggesting a fresh value from
    the parent").
    """
    if child_ttl <= parent_ttl:
        raise ValueError(
            f"this variant needs child_ttl > parent_ttl, got {child_ttl} <= {parent_ttl}"
        )
    if not parent_ttl < cap < child_ttl:
        raise ValueError(f"cap {cap} must fall between parent and child TTLs")
    breakdown = CentricityBreakdown()
    for ttl in ttls:
        breakdown.total += 1
        if ttl > cap:
            breakdown.child += 1
        elif ttl > parent_ttl:
            breakdown.capped += 1
        else:
            breakdown.parent += 1
            if ttl == parent_ttl:
                breakdown.full_parent_ttl += 1
    return breakdown


@dataclass
class PassiveBreakdown:
    """The §3.4 authoritative-side view."""

    groups: int = 0
    multi_query_groups: int = 0  # child-centric signal
    single_query_groups: int = 0
    #: Single-query resolvers also seen multi-querying other names —
    #: evidence they are child-centric after all (paper finds ~14 %).
    single_but_child_elsewhere: int = 0

    @property
    def multi_fraction(self) -> float:
        return self.multi_query_groups / self.groups if self.groups else 0.0

    @property
    def single_fraction(self) -> float:
        return self.single_query_groups / self.groups if self.groups else 0.0


def classify_passive_groups(
    groups: dict[tuple[str, object], list[float]],
) -> PassiveBreakdown:
    """Classify authoritative-side (resolver, qname) groups (§3.4)."""
    breakdown = PassiveBreakdown(groups=len(groups))
    multi_resolvers: set[str] = set()
    single_groups: list[tuple[str, object]] = []
    for (resolver, qname), timestamps in groups.items():
        if len(timestamps) > 1:
            breakdown.multi_query_groups += 1
            multi_resolvers.add(resolver)
        else:
            breakdown.single_query_groups += 1
            single_groups.append((resolver, qname))
    single_resolvers = {resolver for resolver, _ in single_groups}
    breakdown.single_but_child_elsewhere = sum(
        1 for resolver in single_resolvers if resolver in multi_resolvers
    )
    return breakdown


def sticky_vps(
    per_vp_answers: dict[str, list[tuple[float, tuple[str, ...]]]],
    old_answer: str,
    first_round_end: float,
) -> set[str]:
    """VPs that answered in round one and *only* ever saw the old server.

    The paper's Table 4 definition: "send queries on the first round of
    measurements ... and always contact the same authoritative name
    server, even when TTLs expire."
    """
    sticky: set[str] = set()
    for vp_id, rows in per_vp_answers.items():
        if not rows:
            continue
        first = min(timestamp for timestamp, _ in rows)
        if first > first_round_end:
            continue
        answers = {answer for _, answers in rows for answer in answers}
        if answers == {old_answer}:
            sticky.add(vp_id)
    return sticky
