"""A deterministic, mergeable metrics registry.

The simulator's observability layer has one hard requirement the usual
metrics libraries do not: **shard-merge must be exact**.  A campaign's
shards run in separate processes and their snapshots are folded together
by :mod:`repro.runner`, so every metric kind is chosen to make the merge
associative and commutative with an empty identity:

- *counters* (and labeled counter families) merge by integer addition;
- *gauges* are high-watermarks and merge by ``max`` — a "last value"
  gauge would depend on merge order;
- *histograms* use **fixed buckets chosen at declaration time** (usually
  log-spaced via :func:`log_buckets`), so two snapshots of the same
  histogram always have identical bucket bounds and merging is exact
  elementwise integer addition, never an approximation.  Value sums are
  accumulated in fixed-point integers (:data:`FIXED_POINT` units) because
  float addition is not associative — integer sums are.

Metrics carry a *domain*: ``"sim"`` for facts of the simulated world
(deterministic: byte-identical for any worker count) and ``"host"`` for
wall-clock execution telemetry (per-shard wall times, retry counts),
which is excluded from the determinism contract and, by default, from
exported JSON.  See ``docs/observability.md``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial, reduce
from operator import ge, is_not
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "FIXED_POINT",
    "SIM",
    "HOST",
    "MetricError",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "COUNTER",
    "LABELED_COUNTER",
    "GAUGE",
    "HISTOGRAM",
]

#: Scale for histogram value sums: 1 unit = 1e-6 of the observed value.
#: Observations are rounded to fixed point *per observation*, so sums are
#: integers and merge exactly in any order.
FIXED_POINT = 10**6

#: Metric domains.
SIM = "sim"
HOST = "host"

Number = Union[int, float]


class MetricError(ValueError):
    """Conflicting declaration or invalid metric operation."""


def log_buckets(low: float, high: float, per_decade: int = 4) -> tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering ``[low, high]``.

    Bounds are ``10**(i / per_decade)`` for consecutive integers ``i`` —
    a pure function of the arguments, so every process declaring the same
    histogram computes bit-identical bounds.
    """
    if low <= 0 or high <= low:
        raise MetricError(f"need 0 < low < high, got ({low}, {high})")
    if per_decade < 1:
        raise MetricError(f"per_decade must be >= 1, got {per_decade}")
    first = math.floor(math.log10(low) * per_decade)
    last = math.ceil(math.log10(high) * per_decade)
    return tuple(10.0 ** (i / per_decade) for i in range(first, last + 1))


class Histogram:
    """Fixed-bucket histogram; bounds are upper edges, chosen at declaration.

    ``counts[i]`` tallies observations ``<= bounds[i]`` (and greater than
    ``bounds[i-1]``); ``overflow`` tallies observations above the last
    bound.  ``sum_fp`` accumulates values in :data:`FIXED_POINT` units.
    """

    __slots__ = (
        "name", "domain", "bounds", "counts", "overflow",
        "count", "sum_fp", "min", "max", "_overflow_index",
    )
    kind = "histogram"

    def __init__(
        self, name: str, bounds: Sequence[float], domain: str = SIM
    ) -> None:
        bounds = tuple(map(float, bounds))
        if not bounds:
            raise MetricError(f"histogram {name}: needs at least one bound")
        if any(map(ge, bounds, bounds[1:])):
            raise MetricError(f"histogram {name}: bounds must strictly increase")
        self.name = name
        self.domain = domain
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self._overflow_index = len(bounds)  # bisect's index past the last bound
        self.overflow = 0
        self.count = 0
        self.sum_fp = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        if index == self._overflow_index:
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.count += 1
        self.sum_fp += round(value * FIXED_POINT)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.sum_fp / self.count / FIXED_POINT

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "domain": self.domain,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum_fp": self.sum_fp,
            "min": self.min,
            "max": self.max,
        }


#: Metric kinds, as a collector names them.
COUNTER = "counter"
LABELED_COUNTER = "labeled_counter"
GAUGE = "gauge"
HISTOGRAM = Histogram.kind

_recorded = partial(is_not, None)


class MetricsRegistry:
    """Collects the metrics of one process (or one shard).

    Counts live as plain slots on the objects that own the facts; owners
    register *collectors* (name, kind, domain, owner, attribute) with
    :meth:`collect`, its only input, and :meth:`snapshot` folds the
    collectors of each name: counters and labeled counters by sum, gauges
    by the max of recorded (non-``None``) values, histograms by the exact
    snapshot merge.  A kind, domain or bucket mismatch on a name raises
    :class:`MetricError`.
    """

    def __init__(self) -> None:
        #: name -> (kind, domain, bounds, owners, attributes); a histogram
        #: collector's owner is the :class:`Histogram` itself (no attribute).
        self._families: dict[str, tuple[str, str, Optional[tuple], list, list]] = {}
        #: (owner, attribute, domain) of each ``name -> count`` dict slot.
        self._tallies: list[tuple[object, str, str]] = []
        #: ``collect(..., after=...)`` calls whose gate slot is still ``None``.
        self._gated: list[tuple[object, Iterable, str, str]] = []

    def _family(self, name: str, kind: str, domain: str, bounds: Optional[tuple]):
        family = self._families.setdefault(name, (kind, domain, bounds, [], []))
        if family[:3] != (kind, domain, bounds):
            raise MetricError(f"metric {name!r} redeclared as {kind}/{domain} with "
                              f"buckets {bounds}, was {family[0]}/{family[1]} {family[2]}")
        return family[3], family[4]

    def collect(
        self, owner: object, slots: Iterable[tuple], domain: str = SIM, after: Optional[str] = None
    ) -> None:
        """Fold each ``(name, kind, attribute)`` slot's ``owner.attribute``
        into metric ``name`` at every :meth:`snapshot` (a histogram slot's
        :class:`Histogram` is bound here, once).  A ``(None, COUNTER,
        attribute)`` slot is a dict of counts keyed by metric name, each
        key folded as its own counter from its first count on.  With
        ``after``, collection starts at the first snapshot that finds
        ``owner.after`` set: a feature's metrics appear only once it has
        been used."""
        if after is not None:
            self._gated.append((owner, slots, domain, after))
            return
        for name, kind, attr in slots:
            if name is None:
                self._tallies.append((owner, attr, domain))
            elif kind == HISTOGRAM:
                histogram = getattr(owner, attr)
                owners, _ = self._family(name, kind, domain, histogram.bounds)
                owners.append(histogram)
            else:
                owners, attrs = self._family(name, kind, domain, None)
                owners.append(owner)
                attrs.append(attr)

    def snapshot(self) -> "MetricsSnapshot":
        from repro.metrics.snapshot import MetricsSnapshot, _merge_metric

        gated, self._gated = self._gated, []
        for owner, slots, domain, after in gated:
            self.collect(owner, slots, domain, None if getattr(owner, after) is not None else after)
        metrics = {}
        for name, (kind, domain, _, owners, attrs) in self._families.items():
            if kind == COUNTER:
                payload = {"value": sum(map(getattr, owners, attrs))}
            elif kind == GAUGE:
                recorded = filter(_recorded, map(getattr, owners, attrs))
                payload = {"value": max(recorded, default=None)}
            else:  # families and histograms fold by the exact snapshot merge
                parts = map(Histogram.payload, owners) if kind == HISTOGRAM else (
                    {"kind": kind, "domain": domain, "values": dict(sorted(values.items()))}
                    for values in map(getattr, owners, attrs)
                )
                payload = reduce(partial(_merge_metric, name), parts)
            metrics[name] = {**payload, "kind": kind, "domain": domain}
        for owner, attr, domain in self._tallies:
            for name, value in getattr(owner, attr).items():
                payload = {"value": value, "kind": COUNTER, "domain": domain}
                if name in metrics:
                    payload = _merge_metric(name, metrics[name], payload)
                metrics[name] = payload
        return MetricsSnapshot(metrics)
