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
  fixed-point integers (:data:`FIXED_POINT` units): float addition is not
  associative, integer sums are, so folding per :data:`BATCH` values
  gives the bytes per-value tallying does.

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
from itertools import repeat
from operator import ge, is_not, mul
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
_to_fixed_point = partial(mul, FIXED_POINT)

#: Observations a histogram holds before folding them in one pass (a power
#: of two, so its buffer, doubling from 4 slots, ends at exactly this size).
BATCH = 64

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

    :meth:`observe` only stores the value.  A full :data:`BATCH`, and every
    read, folds the pending values into the payload's ``counts[i]`` (values
    ``<= bounds[i]``, above ``bounds[i-1]``), ``overflow``, ``count``,
    ``sum_fp``, ``min`` and ``max`` (first seen wins a tie).  A NaN,
    infinity or non-number raises from that fold, which drops its batch.
    """

    __slots__ = (
        "name", "domain", "bounds", "_counts", "_count", "_sum_fp", "_min", "_max", "_pending",
        "_filled",
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
        self._counts = [0] * (len(bounds) + 1)  # bisect's index past the last bound overflows
        self._count = 0
        self._sum_fp = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._pending: list = [None] * 4  # doubles up to BATCH: most histograms see few values
        self._filled = 0

    def observe(self, value: Number) -> None:
        try:
            self._pending[self._filled] = value
        except IndexError:
            self._pending *= 2
            self._pending[self._filled] = value
        self._filled += 1
        if self._filled == BATCH:
            self._fold()

    def _fold(self) -> None:
        filled = self._filled
        if not filled:
            return
        self._filled = 0
        values = list(map(float, self._pending[:filled]))
        self._sum_fp += sum(map(round, map(_to_fixed_point, values)))
        counts = self._counts
        for index in map(bisect_left, repeat(self.bounds), values):
            counts[index] += 1
        self._count += filled
        low, high = min(values), max(values)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    @property
    def mean(self) -> Optional[float]:
        self._fold()
        return self._sum_fp / self._count / FIXED_POINT if self._count else None

    def payload(self) -> dict:
        self._fold()
        return {
            "kind": self.kind,
            "domain": self.domain,
            "bounds": list(self.bounds),
            "counts": self._counts[:-1],
            "overflow": self._counts[-1],
            "count": self._count,
            "sum_fp": self._sum_fp,
            "min": self._min,
            "max": self._max,
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
