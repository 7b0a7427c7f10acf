"""Resolver policy knobs.

Each knob corresponds to a behaviour the paper observes in the wild; a
:class:`ResolverPolicy` bundles one resolver's choices.  The named
constructors build the archetypes used by the population generator:

- :meth:`ResolverPolicy.child_centric` — the RFC 2181 §5.4.1 majority
  behaviour (~90 % of .uy answers, §3.2),
- :meth:`ResolverPolicy.parent_centric` — trusts referral glue as answers
  and pins it for the parent's TTL (OpenDNS-like, §3.2/§4.4),
- :meth:`ResolverPolicy.capping` — child-centric with a TTL ceiling
  (Google Public DNS's 21599 s cap, §3.3),
- :meth:`ResolverPolicy.sticky` — keeps using the first servers it learned
  even past TTL expiry (§4.2's "sticky resolvers", ~2.25 %),
- :meth:`ResolverPolicy.local_root` — RFC 7706: serves the root zone from a
  local copy, so root-zone data (TLD NS and glue) always carries the
  parent's TTL and no root queries leave the resolver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

#: RFC 7871 source prefixes an ECS resolver truncates client addresses
#: to: the privacy-motivated defaults large public resolvers use.
ECS_SOURCE_PREFIX_V4 = 24
ECS_SOURCE_PREFIX_V6 = 56

#: Refresh once the remaining lifetime falls below this fraction of the
#: original (Unbound's prefetch window, shared by on-hit prefetch)...
LEAD_FRACTION = 0.1
#: ...but always leave at least this many seconds of lead, so very short
#: TTLs still get refreshed before they expire.
MIN_LEAD_S = 1.0
#: How far ahead of now the expiry feed looks for refresh candidates.
FEED_HORIZON_S = 60.0
#: How long past expiry stale-while-revalidate may still answer (RFC 8767
#: §5 suggests 1-3 days).
MAX_STALE_S = 86400.0


class Centricity(enum.Enum):
    """Which side of a delegation the resolver believes (paper §3)."""

    CHILD = "child"
    PARENT = "parent"


@dataclass(frozen=True)
class ResolverPolicy:
    """One resolver's caching and iteration behaviour."""

    #: Parent- or child-centric TTL preference (§3).
    centricity: Centricity = Centricity.CHILD
    #: Cap applied to every cached TTL (Google-like 21599 s), or None.
    ttl_cap: Optional[int] = None
    #: Floor applied to every cached TTL ("tens of seconds" in §6.1).
    ttl_floor: int = 0
    #: Serve expired answers when all authoritatives are unreachable
    #: (draft-ietf-dnsop-serve-stale, §3.1).
    serve_stale: bool = False
    #: RFC 7706 / LocalRoot: a local copy of the root zone (§3.1).
    rfc7706_local_root: bool = False
    #: Tie in-bailiwick glue addresses to their covering NS set (§4.2's
    #: majority behaviour); out-of-bailiwick addresses always live their
    #: full TTL regardless of this flag.
    link_inbailiwick_glue: bool = True
    #: Sticky: refresh cached server addresses on expiry instead of
    #: re-fetching, so the resolver never notices renumbering (§4.2).
    sticky: bool = False
    #: Answer client NS queries from referral-credibility cache data
    #: (parent-centric resolvers do; child-centric ones re-query the child).
    answer_from_referral: bool = False
    #: Fetch a server's address from the child zone when only glue is
    #: cached (DNSSEC-validating / target-fetching resolvers).  These
    #: explicit A queries for NS names at the child's own servers are what
    #: the paper's §3.4 passive study observes at the .nl authoritatives.
    target_fetch: bool = True
    #: Unbound-style prefetch (the Pappas et al. renewal strategy the
    #: paper's §7 cites): refresh popular records out-of-band when a hit
    #: lands in the last tenth of their lifetime, hiding the miss latency.
    prefetch: bool = False
    #: Predictive caching (repro.predict): popularity-driven refresh-ahead
    #: and RFC 8767 stale-while-revalidate, tuned by that package's
    #: constants.
    predict: bool = False
    #: RFC 7871 EDNS Client Subnet: attach client prefixes truncated to
    #: :data:`ECS_SOURCE_PREFIX_V4`/``_V6`` to upstream queries and cache
    #: scoped answers per subnet.  Off, every code path is byte-identical
    #: to a build without ECS.
    ecs: bool = False
    #: Push subscriptions (repro.push): subscribe to resolved records at
    #: push-capable authoritatives and apply NOTIFY updates in place.
    #: Off, every code path is byte-identical to a build without push.
    push: bool = False

    def __post_init__(self) -> None:
        if self.ttl_cap is not None and self.ttl_cap < self.ttl_floor:
            raise ValueError(
                f"ttl_cap {self.ttl_cap} below ttl_floor {self.ttl_floor}"
            )

    # -- archetypes ---------------------------------------------------------
    @classmethod
    def child_centric(cls) -> "ResolverPolicy":
        """The default, standards-following resolver."""
        return cls()

    @classmethod
    def parent_centric(cls) -> "ResolverPolicy":
        """Trusts and pins parent-side data (OpenDNS-like)."""
        return cls(
            centricity=Centricity.PARENT,
            answer_from_referral=True,
            target_fetch=False,
        )

    @classmethod
    def capping(cls, cap: int = 21599) -> "ResolverPolicy":
        """Child-centric with a TTL ceiling (Google Public DNS-like)."""
        return cls(ttl_cap=cap)

    @classmethod
    def sticky_resolver(cls) -> "ResolverPolicy":
        """Never lets go of the servers it first learned."""
        return cls(sticky=True, target_fetch=False)

    @classmethod
    def local_root(cls) -> "ResolverPolicy":
        """RFC 7706: root zone mirrored locally (parent-centric for TLDs)."""
        return cls(
            centricity=Centricity.PARENT,
            rfc7706_local_root=True,
            answer_from_referral=True,
            target_fetch=False,
        )

    @classmethod
    def unlinked(cls) -> "ResolverPolicy":
        """Child-centric but trusts in-bailiwick A records independently of
        their NS set — the minority behaviour in Figure 6 that keeps using
        the old server between 60 and 120 minutes."""
        return cls(link_inbailiwick_glue=False)

    def with_(self, **overrides: object) -> "ResolverPolicy":
        """A copy with fields replaced (dataclasses.replace shorthand)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Short label used in experiment outputs."""
        parts = [self.centricity.value]
        if self.ttl_cap is not None:
            parts.append(f"cap{self.ttl_cap}")
        if self.ttl_floor:
            parts.append(f"floor{self.ttl_floor}")
        if self.sticky:
            parts.append("sticky")
        if self.rfc7706_local_root:
            parts.append("rfc7706")
        if self.serve_stale:
            parts.append("serve-stale")
        if not self.link_inbailiwick_glue:
            parts.append("unlinked")
        if self.prefetch:
            parts.append("prefetch")
        if self.predict:
            parts.append("predict")
        if self.ecs:
            parts.append("ecs")
        if self.push:
            parts.append("push")
        return "+".join(parts)

    @classmethod
    def prefetching(cls) -> "ResolverPolicy":
        """Child-centric with Unbound-style prefetch."""
        return cls(prefetch=True)

    @classmethod
    def predictive(cls) -> "ResolverPolicy":
        """Child-centric with the full repro.predict stack: popularity
        tracking, budgeted refresh-ahead, and RFC 8767 serve-stale."""
        return cls(predict=True)

    @classmethod
    def pushing(cls) -> "ResolverPolicy":
        """Child-centric with push subscriptions (repro.push): records
        resolved at push-capable authoritatives are subscribed to and
        updated in place on NOTIFY instead of re-polled on TTL expiry."""
        return cls(push=True)
