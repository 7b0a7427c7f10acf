"""Predictive caching: keep hot names warm off the client path.

The paper's §7 gestures at renewal strategies ("pre-fetching before
expiration"); this package makes them measurable.  Three cooperating
pieces:

- :class:`PopularityTracker` — a bounded, deterministic space-saving
  top-K sketch deciding *which* names are worth keeping warm,
- :class:`RefreshScheduler` — budgeted refresh jobs on the sim clock
  deciding *when* hot names are re-resolved (shortly before expiry,
  never on the client path, never past the refresh budget),
- RFC 8767 stale-while-revalidate — implemented in
  :mod:`repro.resolver.recursive` behind ``ResolverPolicy.predict``: a
  miss with usable stale data answers immediately with a capped TTL
  while an asynchronous revalidation job repopulates the cache.

One tuning serves every caller, so its values are module constants
(``TRACK_TOP_K``, ``MIN_HITS``, ``MAX_REFRESH_PER_S``, ...), not knobs.

Everything is driven by explicit sim timestamps, so serial and sharded
campaigns see byte-identical refresh traffic; :mod:`repro.serve` drives
the same machinery live through its :class:`WallClockBridge`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "popularity": ("MIN_HITS", "TRACK_TOP_K", "PopularityTracker"),
    "scheduler": (
        "FAILURE_BACKOFF_CAP_S", "FAILURE_BACKOFF_S", "LEAD_BUCKETS_S", "MAX_REFRESH_PER_S",
        "REFRESH_BURST", "RefreshScheduler",
    ),
})
