"""Authoritative DNS servers for the simulation.

:class:`AuthoritativeServer` serves one or more zones from a single
endpoint; :class:`AnycastCluster` serves the same zones from many sites
behind one address, with per-client catchment by lowest RTT (how Route53's
45-site anycast in the paper's §6.2 experiment behaves).  Both record every
query into an ENTRADA-style :class:`QueryLog` for the passive analyses.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "authoritative": ("AuthoritativeServer",),
    "anycast": ("AnycastCluster",),
    "cdn": ("CdnAuthoritativeServer", "CdnSite"),
    "querylog": ("QueryLog", "QueryLogEntry", "QueryLogWriter", "entry_from_dict",
                 "entry_to_dict"),
    "rrl": ("ResponseRateLimiter", "RrlVerdict"),
})
