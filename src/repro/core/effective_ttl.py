"""The effective-TTL model — the paper's analytical core.

The paper's central question (§2): with TTLs configured in several places
(parent glue, child authoritative data) and consumed by resolvers with
different preferences, what is the *effective* cache lifetime of a record,
and who controls it?

These functions answer that analytically; the simulation scenarios confirm
the same numbers empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dns.ttl import validate_ttl
from repro.resolver.policy import Centricity, ResolverPolicy


@dataclass(frozen=True)
class DelegationConfig:
    """TTLs of one delegation as configured on both sides of the cut."""

    parent_ns_ttl: int
    child_ns_ttl: int
    #: Glue (parent-side) address TTL; None when the server is
    #: out-of-bailiwick and the parent publishes no glue.
    parent_glue_ttl: Optional[int] = None
    #: Child-side address TTL for the server name.
    child_address_ttl: Optional[int] = None
    in_bailiwick: bool = True

    def __post_init__(self) -> None:
        validate_ttl(self.parent_ns_ttl)
        validate_ttl(self.child_ns_ttl)
        if self.parent_glue_ttl is not None:
            validate_ttl(self.parent_glue_ttl)
        if self.child_address_ttl is not None:
            validate_ttl(self.child_address_ttl)
        if not self.in_bailiwick and self.parent_glue_ttl is not None:
            raise ValueError("out-of-bailiwick delegations carry no glue")


@dataclass(frozen=True)
class EffectiveTTL:
    """What a resolver of a given policy effectively caches."""

    ns_ttl: int
    address_ttl: Optional[int]
    #: Seconds until a *renumbered* server address stops being used — the
    #: observable in Figures 6 and 7.
    switch_time: Optional[int]
    #: Which zone's operator controls the NS lifetime.
    controller: str  # "parent" or "child"


def effective_record_ttl(
    config: DelegationConfig, policy: ResolverPolicy
) -> EffectiveTTL:
    """The TTLs a resolver with ``policy`` will honour for a delegation."""
    ns_ttl, address_ttl = effective_record_ttl_values(config, policy)
    return EffectiveTTL(
        ns_ttl=ns_ttl,
        address_ttl=address_ttl,
        switch_time=effective_switch_time(config, policy),
        controller="parent" if policy.centricity is Centricity.PARENT else "child",
    )


def effective_switch_time(
    config: DelegationConfig, policy: ResolverPolicy
) -> Optional[int]:
    """Seconds until a renumbered server's new address takes effect.

    The §4 result in closed form:

    - sticky resolvers never switch (``None``);
    - parent-centric resolvers hold addresses as long as the parent NS
      data (the OpenDNS behaviour of §4.4);
    - in-bailiwick + linked glue (the ~90 % majority): the address dies
      with the NS set → ``min(ns_ttl, address_ttl)`` — in the paper's
      configuration (NS 3600, A 7200) that is 3600 s, the 60-minute switch
      of Figure 6;
    - out-of-bailiwick (or unlinked): the address lives its full TTL →
      7200 s, the 120-minute switch of Figure 7.
    """
    if policy.sticky:
        return None
    ns_ttl, address_ttl = effective_record_ttl_values(config, policy)
    if address_ttl is None:
        return ns_ttl
    if policy.centricity is Centricity.PARENT:
        return max(ns_ttl, address_ttl)
    if config.in_bailiwick and policy.link_inbailiwick_glue:
        return min(ns_ttl, address_ttl)
    return address_ttl


def effective_record_ttl_values(
    config: DelegationConfig, policy: ResolverPolicy
) -> tuple[int, Optional[int]]:
    """(ns_ttl, address_ttl) after centricity and cap/floor, no recursion."""
    if policy.centricity is Centricity.PARENT:
        ns_ttl = config.parent_ns_ttl
        address_ttl = (
            config.parent_glue_ttl if config.in_bailiwick else config.child_address_ttl
        )
    else:
        ns_ttl = config.child_ns_ttl
        address_ttl = config.child_address_ttl
        if address_ttl is None and config.in_bailiwick:
            address_ttl = config.parent_glue_ttl
    if policy.ttl_cap is not None:
        ns_ttl = min(ns_ttl, policy.ttl_cap)
        if address_ttl is not None:
            address_ttl = min(address_ttl, policy.ttl_cap)
    ns_ttl = max(ns_ttl, policy.ttl_floor)
    if address_ttl is not None:
        address_ttl = max(address_ttl, policy.ttl_floor)
    return ns_ttl, address_ttl
