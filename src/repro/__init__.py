"""repro — a reproduction of "Cache Me If You Can: Effects of DNS Time-to-Live".

The package implements, in pure Python, every system the IMC 2019 paper by
Moura, Heidemann, Schmidt and Hardaker depends on:

- :mod:`repro.dns` — a DNS data model and RFC 1035 wire codec,
- :mod:`repro.net` — a deterministic discrete-event network simulation with a
  geographic latency model,
- :mod:`repro.server` — authoritative name servers (including anycast
  clusters) with ENTRADA-style query logging,
- :mod:`repro.resolver` — recursive resolvers with configurable caching
  policies (parent/child centricity, TTL caps, serve-stale, RFC 7706,
  stickiness, bailiwick-linked expiry),
- :mod:`repro.atlas` — a RIPE-Atlas-like measurement platform,
- :mod:`repro.crawler` — a parent/child TTL crawler plus synthetic top-list
  and DMap content-classification generators,
- :mod:`repro.analysis` — CDF/quantile, centricity, interarrival, and latency
  analysis used by the experiment harness,
- :mod:`repro.core` — the paper's experiments themselves: effective-TTL
  computation, canonical simulated worlds, and one scenario per section,
- :mod:`repro.runner` — sharded parallel campaigns with checkpoint/resume,
- :mod:`repro.metrics` — deterministic, mergeable observability,
- :mod:`repro.faults` — schedule-driven fault injection,
- :mod:`repro.predict` — predictive caching: popularity tracking and
  budgeted refresh-ahead,
- :mod:`repro.push` — push-based record updates (pub/sub vs. TTL polling),
- :mod:`repro.serve` — a live asyncio DNS frontend over the simulated stack,
- :mod:`repro.loadgen` — an open-loop wire-level DNS load generator, and
- :mod:`repro.workload` — the Zipf workload shape the last two share.

See ``DESIGN.md`` for the full inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.version import __version__

__all__ = ["__version__"]
