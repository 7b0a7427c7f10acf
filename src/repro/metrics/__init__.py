"""repro.metrics — deterministic, mergeable observability.

See ``docs/observability.md`` for the design and the JSON schema.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "registry": ("FIXED_POINT", "HOST", "SIM", "Histogram", "MetricError", "MetricsRegistry",
                 "log_buckets"),
    "render": ("render_snapshot",),
    "schema": ("validate_json", "validate_payload"),
    "snapshot": ("SCHEMA_ID", "MetricsSnapshot", "merge_snapshots"),
})
