"""repro.loadgen — an open-loop wire-level DNS load generator.

`repro loadgen` fires real UDP queries at a live server (normally
`repro serve`) with Poisson or fixed-rate arrivals and Zipf-distributed
qname popularity, retries on the resolver's own flat timeout ladder, and
reports achieved qps, loss, and latency percentiles.  See
``docs/serving.md``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "arrivals": ("ZipfSampler", "fixed_schedule", "poisson_schedule", "qnames_for_ranks"),
    "client": ("LoadGenerator", "LoadgenConfig", "run_loadgen"),
    "report": ("LoadReport",),
})
