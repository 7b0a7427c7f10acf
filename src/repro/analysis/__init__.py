"""Analysis pipeline: CDFs, centricity classification, interarrivals,
latency statistics, and text renderers for tables and figures."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cdf": ("ECDF",),
    "centricity": ("CentricityBreakdown", "classify_active_ttls", "classify_passive_groups"),
    "hitrate": ("analytic_hit_rate", "simulate_hit_rate"),
    "interarrival": ("interarrivals", "min_interarrival_per_group", "queries_per_group"),
    "latencystats": ("LatencySummary", "latency_summary", "regional_summaries"),
    "tables": ("Table", "render_cdf", "render_cdf_plot", "render_timeseries"),
})
