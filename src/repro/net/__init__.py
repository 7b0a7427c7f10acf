"""Deterministic network simulation substrate.

The paper's measurements run on the real Internet; here we substitute a
round-driven simulation with three pieces:

- :mod:`repro.net.topology` — regions, autonomous systems and addressed
  endpoints,
- :mod:`repro.net.latency` — a geographic RTT model calibrated so that
  intra-region paths are tens of milliseconds and inter-continental paths
  are hundreds, matching the contrast the latency figures rely on, and
- :mod:`repro.net.transport` — a datagram fabric connecting endpoints to
  servers, with down addresses, fault-plan hooks, timeouts and retries.

Everything is seeded; two runs with the same seed produce identical
datasets.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "latency": ("LatencyModel",),
    "topology": ("AddressAllocator", "AutonomousSystem", "Endpoint", "Region", "Topology"),
    "transport": ("Network", "NetworkTimeout", "Server", "SessionBroken", "TcpSession"),
})
