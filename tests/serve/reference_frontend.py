"""The layered memo hit, kept as a reference for the inlined one.

:class:`ReferenceFrontend` is the production :class:`DnsFrontend` but for
:meth:`~DnsFrontend.fast_answer`, which answers a memo hit through one
call per step: :meth:`WallClockBridge.now` for the sim instant,
:meth:`ResponseMemo.get` for the whole memo rule, and
:meth:`DnsFrontend._account` for the accounting.  The production path
does all three inline; ``tests/serve/test_fast_answer_reference.py``
feeds both the same streams and requires the same observable results.
"""

import time
from typing import Optional

from repro.serve.frontend import DnsFrontend


class ReferenceFrontend(DnsFrontend):
    def fast_answer(self, data: bytes, client: str) -> Optional[bytes]:
        memo = self.memo
        if memo is None or self.rrl.rate > 0:
            return None
        started = time.monotonic()
        sim_now = self.bridge.now()
        entry = memo.get(data[2:], sim_now)
        if entry is None:
            return None
        track = self.resolver.track_arrival
        if track is not None:
            track(entry.qname, entry.qtype, sim_now)
        self._account(
            False, entry.rcode_name, started, sim_now, client,
            entry.qname, entry.qtype, cache_hit=True,
        )
        return data[:2] + entry.wire[2:]
