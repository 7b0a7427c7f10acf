"""Sharded parallel campaign execution.

The paper's experiments are embarrassingly parallel loops over
independent vantage points, domains, or clients.  This package turns
any of them into a *campaign*: a deterministic shard plan
(:mod:`repro.runner.shard`), an execution engine that runs shards on a
process pool or in-process through one attempt loop, giving a failed
shard up to three attempts (:mod:`repro.runner.executor`),
order-independent merging with invariant checks
(:mod:`repro.runner.merge`), completed-shard checkpointing
(:mod:`repro.runner.checkpoint`), and structured progress telemetry
(:mod:`repro.runner.progress`).

The load-bearing guarantee: a campaign run with N workers produces
results identical to the serial (``parallelism=1``) run of the same
shard plan, and a run killed mid-campaign resumes from its run
directory without recomputing completed shards.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "checkpoint": ("CheckpointMismatch", "CheckpointStore"),
    "executor": ("ShardError", "ShardExecutor", "ShardOutcome"),
    "merge": ("MergeError", "merge_crawl_results", "merge_result_sets"),
    "progress": ("ProgressEvent", "ProgressTracker", "render_event"),
    "shard": ("Shard", "derive_seed", "plan_shards"),
})
