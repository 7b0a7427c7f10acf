"""repro.serve — a live asyncio DNS frontend over the simulated stack.

`repro serve` binds a real UDP + TCP port, decodes wire-format queries
with the :mod:`repro.dns` codec, and answers from a
:class:`RecursiveResolver` whose cache fronts one of the canonical
simulated worlds, with wall time bridged onto the sim clock so TTLs age
for real.  The hot path drains each UDP wakeup in one callback and
answers repeat queries from a memo of encoded responses
(:mod:`repro.serve.memo`).  See ``docs/serving.md``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "bridge": ("WallClockBridge",),
    "config": ("WORLD_BUILDERS", "ServeConfig", "build_frontend"),
    "frontend": ("DnsFrontend", "ServeResult", "servfail_wire"),
    "memo": ("DEFAULT_MEMO_CAPACITY", "ResponseMemo"),
    "server": ("ServeServer",),
    "workers": ("run_worker", "run_workers"),
})
