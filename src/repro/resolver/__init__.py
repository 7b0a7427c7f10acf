"""Recursive resolvers with configurable caching policies.

The paper's central observation is that "the effective DNS TTL is often
different from what is configured because TTLs appear in multiple locations
and resolvers make different choices in which TTL they prefer."  This
package models those choices explicitly:

- :mod:`repro.resolver.cache` — a TTL cache with RFC 2181 §5.4.1
  credibility ranking and optional linked expiry (in-bailiwick glue dies
  with its covering NS set),
- :mod:`repro.resolver.policy` — the knobs observed in the wild: parent- vs
  child-centricity, TTL caps and floors, serve-stale, RFC 7706 local root,
  sticky server pinning,
- :mod:`repro.resolver.recursive` — the iterative resolution engine, and
- :mod:`repro.resolver.stub` — the client-side API.

Resolver *populations* in the behaviour mix the paper measured are built
by :mod:`repro.atlas.population`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cache": ("Cache", "CacheEntry", "Credibility"),
    "forwarder": ("ForwardingResolver",),
    "policy": ("Centricity", "ResolverPolicy"),
    "recursive": ("RecursiveResolver", "ResolutionResult"),
    "stub": ("StubResolver",),
})
