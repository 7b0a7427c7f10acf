"""Per-layer accounting from outside the program.

Two instruments, both attached from the benchmark's own files with no edit
or monkeypatch of ``src/``:

- :func:`layer_profile` folds a ``cProfile`` run into the repo's layers by
  source path: call counts are exact and repeat across processes; self times
  carry the profiler's per-call cost, so read them as proportions.
- :class:`SpanSampler` is a ``sys.setprofile`` hook that records a span on
  entry/exit of the layer-boundary functions for the first few requests.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Optional

#: Modules that are a layer of their own, by path under ``src/repro``.
_MODULE_LAYERS = (
    "resolver/stub",
    "resolver/recursive",
    "resolver/cache",
    "net/transport",
    "net/latency",
    "server/authoritative",
    "dns/zone",
    "dns/message",
    "dns/wire",
    "dns/name",
    "dns/record",
    "serve/frontend",
    "serve/memo",
    "serve/bridge",
)
#: Where the remaining files of a package are counted: whole-package layers
#: map to themselves, helper modules fold into the layer that calls them.
_PACKAGE_LAYERS = {
    "core": "core",
    "runner": "runner",
    "atlas": "atlas",
    "analysis": "analysis",
    "metrics": "metrics",
    "resolver": "resolver.recursive",  # policy, population, forwarder
    "net": "net.transport",  # topology, clock, trace
    "server": "server.authoritative",  # querylog, rrl, anycast
    "dns": "dns.record",  # rdtypes, ttl, ecs
    "serve": "serve.frontend",  # config
}
LAYERS = (
    "core",
    "runner",
    "atlas",
    "analysis",
    *(module.replace("/", ".") for module in _MODULE_LAYERS),
    "metrics",
    "python",
    "harness",
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


#: The replay loop's per-query timer; ``src/`` reads time.monotonic only.
_HARNESS_BUILTIN = "<built-in method time.perf_counter_ns>"


def layer_of(filename: str, function: str = "") -> str:
    """The layer a profiled function belongs to, by its source file."""
    if filename.startswith(_BENCH_DIR) or function == _HARNESS_BUILTIN:
        return "harness"
    _, mark, tail = filename.rpartition(_REPRO_MARK)
    if not mark:
        return "python"  # builtins ("~"), stdlib, generated "<string>" code
    module = tail[:-3].replace(os.sep, "/")
    if module in _MODULE_LAYERS:
        return module.replace("/", ".")
    # Top-level modules (workload.py, cli.py) and other packages count as core.
    return _PACKAGE_LAYERS.get(module.split("/")[0], "core")


def layer_profile(profiler) -> tuple[dict[str, int], dict[str, float], dict[tuple[str, str], int]]:
    """(calls per layer, self seconds per layer, calls per (layer, function))."""
    import pstats

    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    functions: dict[tuple[str, str], int] = {}
    for (filename, _, name), (_, ncalls, tottime, _, _) in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename, name)
        calls[layer] += ncalls
        self_s[layer] += tottime
        functions[layer, name] = functions.get((layer, name), 0) + ncalls
    return calls, self_s, functions


def boundary_functions() -> tuple[dict[Any, str], set]:
    """Code objects of the layer-boundary functions, and which of them
    open a new request (the first call a client query makes)."""
    from repro.dns.message import Message
    from repro.dns.zone import Zone
    from repro.net.transport import Network
    from repro.resolver.cache import Cache
    from repro.resolver.recursive import RecursiveResolver
    from repro.resolver.stub import StubResolver
    from repro.serve.frontend import DnsFrontend
    from repro.serve.memo import ResponseMemo
    from repro.server.authoritative import AuthoritativeServer

    boundaries = {
        function.__code__: name
        for name, function in (
            ("resolver.stub.query", StubResolver.query),
            ("resolver.recursive.resolve", RecursiveResolver.resolve),
            ("resolver.cache.get_entry", Cache.get_entry),
            ("resolver.cache.put", Cache.put),
            ("net.transport.exchange", Network.exchange),
            ("server.authoritative.handle_query", AuthoritativeServer.handle_query),
            ("dns.zone.lookup", Zone.lookup),
            ("dns.message.from_wire", Message.from_wire),
            ("dns.message.to_wire", Message.to_wire),
            ("serve.memo.get", ResponseMemo.get),
            ("serve.memo.put", ResponseMemo.put),
            ("serve.frontend.fast_answer", DnsFrontend.fast_answer),
            ("serve.frontend.handle_wire", DnsFrontend.handle_wire),
        )
    }
    # handle_wire always follows a fast_answer miss in the replay loop, so it
    # continues that request instead of opening one.
    roots = {StubResolver.query.__code__, DnsFrontend.fast_answer.__code__}
    return boundaries, roots


class SpanSampler:
    """Record (name, start, end, parent, request) spans for the first
    ``limit`` requests, then remove itself so the rest runs unhooked."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.boundaries, self.roots = boundary_functions()
        self.spans: list[list] = []
        self.requests = 0
        self._open: list[int] = []

    def __call__(self, frame, event: str, arg) -> None:
        if event == "call":
            code = frame.f_code
            name = self.boundaries.get(code)
            if name is None:
                return
            if code in self.roots:
                if self.requests == self.limit:
                    sys.setprofile(None)
                    return
                self.requests += 1
            parent: Optional[int] = self._open[-1] if self._open else None
            self._open.append(len(self.spans))
            self.spans.append([name, time.perf_counter_ns(), None, parent, self.requests])
        elif event == "return" and self._open and frame.f_code in self.boundaries:
            self.spans[self._open.pop()][2] = time.perf_counter_ns()

    def payload(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0
        return [
            {
                "name": name,
                "start_ns": start - origin,
                "end_ns": None if end is None else end - origin,
                "parent": parent,
                "request": request,
            }
            for name, start, end, parent, request in self.spans
        ]
