"""repro.metrics — deterministic, mergeable observability.

See ``docs/observability.md`` for the design and the JSON schema.
"""

from repro.metrics.registry import (
    FIXED_POINT,
    HOST,
    SIM,
    Histogram,
    MetricError,
    MetricsRegistry,
    log_buckets,
)
from repro.metrics.render import render_snapshot
from repro.metrics.schema import validate_json, validate_payload
from repro.metrics.snapshot import SCHEMA_ID, MetricsSnapshot, merge_snapshots

__all__ = [
    "FIXED_POINT",
    "HOST",
    "SIM",
    "SCHEMA_ID",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "log_buckets",
    "merge_snapshots",
    "render_snapshot",
    "validate_json",
    "validate_payload",
]
