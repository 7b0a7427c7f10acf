"""repro.serve — a live asyncio DNS frontend over the simulated stack.

`repro serve` binds a real UDP + TCP port, decodes wire-format queries
with the :mod:`repro.dns` codec, and answers from a
:class:`RecursiveResolver` whose cache fronts one of the canonical
simulated worlds, with wall time bridged onto the sim clock so TTLs age
for real.  The hot path batches datagram I/O (``recvmmsg``/``sendmmsg``
via :mod:`repro.serve.batchio`) and memoizes encoded responses for
repeat queries (:mod:`repro.serve.memo`).  See ``docs/serving.md``.
"""

from repro.serve.batchio import (
    DEFAULT_BATCH_SIZE,
    FallbackBatcher,
    MmsgBatcher,
    make_batcher,
    mmsg_available,
)
from repro.serve.bridge import WallClockBridge
from repro.serve.config import WORLD_BUILDERS, ServeConfig, build_frontend
from repro.serve.frontend import DnsFrontend, ServeResult, servfail_wire
from repro.serve.memo import DEFAULT_MEMO_CAPACITY, ResponseMemo
from repro.serve.server import ServeServer, run_server
from repro.serve.workers import run_worker, run_workers

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MEMO_CAPACITY",
    "DnsFrontend",
    "FallbackBatcher",
    "MmsgBatcher",
    "ResponseMemo",
    "ServeConfig",
    "ServeResult",
    "ServeServer",
    "WORLD_BUILDERS",
    "WallClockBridge",
    "build_frontend",
    "make_batcher",
    "mmsg_available",
    "run_server",
    "run_worker",
    "run_workers",
    "servfail_wire",
]
