"""Shared workload-shape primitives.

Query popularity in DNS is Zipfian (Jung et al.), and two parts of this
repo need the same machinery: the load generator draws qnames from a
Zipf distribution to give caches a hit rate to measure, and the
popularity tracker in :mod:`repro.predict` ranks observed names against
the same shape.  One implementation lives here so the two cannot drift.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "zipf": ("ZipfSampler", "qnames_for_ranks"),
})
