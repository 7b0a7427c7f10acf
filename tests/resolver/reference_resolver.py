"""The resolver's client path with one branch per feature — the reference.

:meth:`RecursiveResolver.resolve` runs a plan compiled at construction:
hook tuples that are empty unless the policy installs the feature.  This
subclass keeps the body that plan replaced, unchanged in what it decides:
every query asks the policy, the scheduler, the tracker, the push client
and the fault injector about themselves, feature by feature, in the
order the production method used to.  It shares everything below the
client path (cache probes, iteration, the feature helpers) with its base
class, so a difference between the two is a difference in *which* helper
ran *when* — exactly what a construction-time plan could get wrong.

``tests/resolver/test_resolve_plan.py`` drives both side by side;
``tests/core/test_reference_equivalence.py`` swaps :func:`reference_resolve`
into every registered campaign.
"""

from __future__ import annotations

from typing import Optional

from repro.dns.ecs import ClientSubnet
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType
from repro.resolver.cache import Credibility
from repro.resolver.policy import ECS_SOURCE_PREFIX_V4, ECS_SOURCE_PREFIX_V6
from repro.resolver.recursive import (
    RecursiveResolver,
    ResolutionError,
    ResolutionResult,
)


def reference_resolve(
    self: RecursiveResolver,
    qname: Name | str,
    qtype: RdataType,
    now: float,
    client_subnet: Optional[ClientSubnet] = None,
) -> ResolutionResult:
    """``RecursiveResolver.resolve`` as it was before the resolve plan."""
    faults = getattr(self.network, "faults", None)
    if faults is not None and faults.take_restart(self.endpoint.address, now):
        self.restart()
    if self._scheduler is not None or self._push is not None:
        self.pump(now)
    self.client_queries += 1
    name = Name(qname)
    if self._tracker is not None:
        self._tracker.record((name, qtype))

    subnet: Optional[ClientSubnet] = None
    if self.policy.ecs and client_subnet is not None:
        subnet = client_subnet.truncate(
            ECS_SOURCE_PREFIX_V4 if client_subnet.family == 1 else ECS_SOURCE_PREFIX_V6
        )
        if subnet.scope_prefix:
            subnet = subnet.with_scope(0)

    negative = self.cache.get_negative(name, qtype, now)
    if negative is not None:
        rcode = Rcode.NXDOMAIN if negative.credibility is Credibility.NXDOMAIN else Rcode.NOERROR
        return ResolutionResult(rcode=rcode, cache_hit=True)

    if subnet is not None:
        scoped = self.cache.get_scoped(name, qtype, subnet, now)
        if scoped is not None:
            return ResolutionResult(
                rcode=Rcode.NOERROR,
                answers=[scoped.aged_rrset(now)],
                cache_hit=True,
                ecs_scope=scoped.scope,
            )

    cached = self._answer_from_cache(name, qtype, now)
    if cached is not None:
        if self._refreshed:
            entry = self.cache.peek(name, qtype)
            if (
                entry is not None
                and self._refreshed.get((name, qtype)) == entry.generation
            ):
                self.refresh_hits += 1
        if self.policy.prefetch:
            self._maybe_prefetch(name, qtype, now)
        elif self.policy.predict:
            self._maybe_refresh_ahead(name, qtype, now)
        return cached

    if self.policy.predict:
        stale = self._stale_while_revalidate(name, qtype, now)
        if stale is not None:
            return stale

    if subnet is not None:
        self._ecs_subnet = subnet
        self._ecs_scope = None
    try:
        result = self._resolve_with_cnames(name, qtype, now, depth=0)
        if subnet is not None:
            result.ecs_scope = self._ecs_scope
        if (
            self._push is not None
            and result.rcode is Rcode.NOERROR
            and result.answers
            and result.servers_contacted
        ):
            self._push.note_answer(
                name, qtype, result.servers_contacted[-1], now + result.elapsed
            )
        return result
    except ResolutionError as failure:
        stale = self._serve_stale(name, qtype, now) if self.policy.serve_stale else None
        if stale is not None:
            stale.elapsed = failure.elapsed
            self.served_stale += 1
            return stale
        self.servfail += 1
        return ResolutionResult(rcode=Rcode.SERVFAIL, elapsed=failure.elapsed)
    finally:
        if subnet is not None:
            self._ecs_subnet = None


class BranchingResolver(RecursiveResolver):
    """A :class:`RecursiveResolver` that ignores its compiled plan."""

    resolve = reference_resolve
