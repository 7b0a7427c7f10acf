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
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "FIXED_POINT",
    "SIM",
    "HOST",
    "MetricError",
    "Counter",
    "LabeledCounter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "NULL_COUNTER",
    "NULL_LABELED_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
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


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "domain", "value")
    kind = "counter"

    def __init__(self, name: str, domain: str = SIM) -> None:
        self.name = name
        self.domain = domain
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def payload(self) -> dict:
        return {"kind": self.kind, "domain": self.domain, "value": self.value}


class LabeledCounter:
    """A family of counters keyed by a string label (e.g. per-server)."""

    __slots__ = ("name", "domain", "values")
    kind = "labeled_counter"

    def __init__(self, name: str, domain: str = SIM) -> None:
        self.name = name
        self.domain = domain
        self.values: dict[str, int] = {}

    def inc(self, label: str, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name}: negative increment {amount}")
        self.values[label] = self.values.get(label, 0) + amount

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "domain": self.domain,
            "values": dict(sorted(self.values.items())),
        }


class Gauge:
    """A high-watermark gauge: records the maximum value ever seen.

    A "current value" gauge cannot merge commutatively across shards, so
    this registry only offers watermarks (cache size peaks, deepest
    recursion, ...).  ``value`` is ``None`` until the first record.
    """

    __slots__ = ("name", "domain", "value")
    kind = "gauge"

    def __init__(self, name: str, domain: str = SIM) -> None:
        self.name = name
        self.domain = domain
        self.value: Optional[Number] = None

    def record(self, value: Number) -> None:
        if self.value is None or value > self.value:
            self.value = value

    def payload(self) -> dict:
        return {"kind": self.kind, "domain": self.domain, "value": self.value}


class Histogram:
    """Fixed-bucket histogram; bounds are upper edges, chosen at declaration.

    ``counts[i]`` tallies observations ``<= bounds[i]`` (and greater than
    ``bounds[i-1]``); ``overflow`` tallies observations above the last
    bound.  ``sum_fp`` accumulates values in :data:`FIXED_POINT` units.
    """

    __slots__ = (
        "name", "domain", "bounds", "counts", "overflow",
        "count", "sum_fp", "min", "max",
    )
    kind = "histogram"

    def __init__(
        self, name: str, bounds: Sequence[float], domain: str = SIM
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise MetricError(f"histogram {name}: needs at least one bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise MetricError(f"histogram {name}: bounds must strictly increase")
        self.name = name
        self.domain = domain
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum_fp = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        if index == len(self.bounds):
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


class _NullMetric:
    """No-op stand-in wired into hot paths when metrics are disabled."""

    __slots__ = ()

    def inc(self, *args, **kwargs) -> None:
        pass

    def record(self, *args, **kwargs) -> None:
        pass

    def observe(self, *args, **kwargs) -> None:
        pass


NULL_COUNTER = _NullMetric()
NULL_LABELED_COUNTER = NULL_COUNTER
NULL_GAUGE = NULL_COUNTER
NULL_HISTOGRAM = NULL_COUNTER

Metric = Union[Counter, LabeledCounter, Gauge, Histogram]


class MetricsRegistry:
    """Declares and holds the metrics of one process (or one shard).

    Declaring an existing name returns the existing metric when the
    declaration matches (same kind, domain, and bounds) — components that
    share a registry share their counters — and raises
    :class:`MetricError` on any mismatch.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __bool__(self) -> bool:
        # A registry with nothing declared yet is still "metrics on":
        # ``metrics or NULL_REGISTRY`` must not swap it for the null one.
        return True

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def _declare(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if existing.kind != metric.kind or existing.domain != metric.domain:
            raise MetricError(
                f"metric {metric.name!r} redeclared as {metric.kind}/"
                f"{metric.domain}, was {existing.kind}/{existing.domain}"
            )
        if isinstance(metric, Histogram):
            assert isinstance(existing, Histogram)
            if existing.bounds != metric.bounds:
                raise MetricError(
                    f"histogram {metric.name!r} redeclared with different buckets"
                )
        return existing

    def counter(self, name: str, domain: str = SIM) -> Counter:
        return self._declare(Counter(name, domain))  # type: ignore[return-value]

    def labeled_counter(self, name: str, domain: str = SIM) -> LabeledCounter:
        return self._declare(LabeledCounter(name, domain))  # type: ignore[return-value]

    def gauge(self, name: str, domain: str = SIM) -> Gauge:
        return self._declare(Gauge(name, domain))  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Sequence[float], domain: str = SIM
    ) -> Histogram:
        return self._declare(Histogram(name, bounds, domain))  # type: ignore[return-value]

    def snapshot(self) -> "MetricsSnapshot":
        from repro.metrics.snapshot import MetricsSnapshot

        return MetricsSnapshot(
            {name: metric.payload() for name, metric in self._metrics.items()}
        )


class _NullRegistry:
    """Declares nothing: every instrument is the shared no-op metric.

    Lets a component declare its instruments once, against
    ``metrics or NULL_REGISTRY``, instead of forking on ``metrics is None``.
    """

    __slots__ = ()

    def counter(self, *args, **kwargs) -> _NullMetric:
        return NULL_COUNTER

    labeled_counter = gauge = histogram = counter


NULL_REGISTRY = _NullRegistry()
