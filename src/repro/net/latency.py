"""Geographic round-trip-time model.

The paper's latency results (Figures 10 and 11) rest on one contrast: a
cache hit is answered by a recursive resolver milliseconds from the client,
while a cache miss walks to authoritative servers that may be continents
away.  This model preserves that contrast:

- a base RTT matrix between continental regions (intercontinental paths are
  100–300 ms, intra-region paths tens of ms),
- a deterministic per-path offset (two hosts in the same region are not
  equidistant), and
- per-query lognormal jitter (queueing, last-mile variance).

Client-to-local-resolver paths use a dedicated short "last mile" latency,
since most probes use a resolver in their own network (§4.4).

Each sampled RTT scales its base by one jitter factor under the contract of
the stdlib's ``Random.lognormvariate(0, σ)``: the same draws, in the same
order, and the same float (Figures 10/11 and every campaign digest rest on
it), drawn inline so that an RTT is one Python frame.

The draw is ``normalvariate``'s Kinderman–Monahan loop, whose acceptance
test ``zz <= -log(u2)`` is squeezed (Kinderman & Monahan 1977, Leva 1992).
With ``d = 1 - u2`` the series of ``-ln(1 - d)`` gives

    lo = d + d²/2  <=  -ln(u2)  <=  lo + d³/(3·u2) = hi,

so a try with ``zz <= 0.999·lo`` is accepted and one with
``zz > 1.001·hi`` is rejected without calling ``log``; only the gap
between the two runs the stdlib's comparison (about one draw in ten).  The
0.1% margin dwarfs the rounding of ``d``, ``lo``, ``hi`` and a libm
``log`` (a few parts in 10¹⁶), so every decision is the float
comparison's: the uniforms drawn, the RNG state after and the returned
float are all the stdlib's.
"""

from __future__ import annotations

import hashlib
import random
from math import exp, log
from random import NV_MAGICCONST
from typing import Optional

from repro.net.topology import Endpoint, Region

#: One-way base latency between regions, in milliseconds.  Symmetric.
#: Derived from typical great-circle distances; only the contrast matters.
_REGION_RTT_MS: dict[tuple[Region, Region], float] = {}


def _set_rtt(a: Region, b: Region, ms: float) -> None:
    _REGION_RTT_MS[(a, b)] = ms
    _REGION_RTT_MS[(b, a)] = ms


_set_rtt(Region.EU, Region.EU, 25.0)
_set_rtt(Region.NA, Region.NA, 35.0)
_set_rtt(Region.AS, Region.AS, 45.0)
_set_rtt(Region.SA, Region.SA, 40.0)
_set_rtt(Region.OC, Region.OC, 30.0)
_set_rtt(Region.AF, Region.AF, 50.0)
_set_rtt(Region.EU, Region.NA, 95.0)
_set_rtt(Region.EU, Region.AS, 150.0)
_set_rtt(Region.EU, Region.SA, 190.0)
_set_rtt(Region.EU, Region.OC, 280.0)
_set_rtt(Region.EU, Region.AF, 110.0)
_set_rtt(Region.NA, Region.AS, 160.0)
_set_rtt(Region.NA, Region.SA, 130.0)
_set_rtt(Region.NA, Region.OC, 180.0)
_set_rtt(Region.NA, Region.AF, 200.0)
_set_rtt(Region.AS, Region.SA, 310.0)
_set_rtt(Region.AS, Region.OC, 140.0)
_set_rtt(Region.AS, Region.AF, 240.0)
_set_rtt(Region.SA, Region.OC, 300.0)
_set_rtt(Region.SA, Region.AF, 280.0)
_set_rtt(Region.OC, Region.AF, 320.0)


class LatencyModel:
    """Computes RTTs between endpoints.

    ``rtt()`` returns seconds (not ms) so callers can add them straight to
    virtual-clock timestamps.
    """

    def __init__(
        self,
        seed: int = 0,
        jitter_sigma: float = 0.25,
        last_mile_ms: float = 4.0,
    ) -> None:
        self._seed = seed
        self._jitter_sigma = jitter_sigma
        self.last_mile_ms = last_mile_ms
        self._rng = random.Random(seed ^ 0x5A17)
        #: (src address, dst address) -> (src region, dst region, base ms).
        #: The base RTT is a pure function of the addresses, the regions
        #: and the seed; its sha256 shows up in campaign profiles, so it is
        #: memoized whole.  The regions ride along and are compared by
        #: identity on a hit: two topologies can hand out one address pair
        #: in different regions.
        self._paths: dict[tuple[str, str], tuple[Region, Region, float]] = {}

    def reseed(self, seed: int) -> None:
        """Restore the just-constructed state under a new seed.

        Base RTTs are seed-dependent, so the memo is dropped with the
        RNG — after this call the model is indistinguishable from
        ``LatencyModel(seed, ...)`` with the same tuning.
        """
        self._seed = seed
        self._rng = random.Random(seed ^ 0x5A17)
        self._paths.clear()

    # -- deterministic components ------------------------------------------------
    def base_rtt_ms(self, src: Endpoint, dst: Endpoint) -> float:
        """The deterministic RTT between two endpoints, in milliseconds.

        Used directly for anycast catchment (nearest site wins) so that a
        client's chosen site is stable across queries.
        """
        path = self._paths.get((src.address, dst.address))
        if path is not None and path[0] is src.region and path[1] is dst.region:
            return path[2]
        if src.address == dst.address:
            base_ms = 0.1
        else:
            key = "|".join(sorted((src.address, dst.address))) + f"|{self._seed}"
            digest = hashlib.sha256(key.encode("ascii")).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            base = _REGION_RTT_MS[(src.region, dst.region)]
            # A stable per-path offset in [0, base/2), derived from addresses.
            base_ms = base + fraction * base * 0.5
        if len(self._paths) < 65536:
            self._paths[src.address, dst.address] = (src.region, dst.region, base_ms)
        return base_ms

    # -- sampled RTTs ----------------------------------------------------------
    # Both run ``Random.normalvariate``'s Kinderman–Monahan loop inline (two
    # ``random`` per try); with μ = 0, ``μ + z·σ`` is ``z·σ``.  Outside
    # ``0.999·lo < zz <= 1.001·hi`` (the module docstring's bounds on
    # ``-ln(u2)``) a bound decides ``zz <= -log(u2)``: the 0.1% margin
    # exceeds every rounding involved, so it decides as ``log`` would.
    def rtt(self, src: Endpoint, dst: Endpoint, rng: Optional[random.Random] = None) -> float:
        """One sampled round trip time between endpoints, in **seconds**."""
        uniform = (rng or self._rng).random
        path = self._paths.get((src.address, dst.address))
        if path is not None and path[0] is src.region and path[1] is dst.region:
            base_ms = path[2]
        else:
            base_ms = self.base_rtt_ms(src, dst)
        while True:
            u1, u2 = uniform(), 1.0 - uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz, d = z * z / 4.0, 1.0 - u2
            lo = d + d * d / 2.0
            if zz <= 0.999 * lo or (
                zz <= 1.001 * (lo + d * d * d / (3.0 * u2)) and zz <= -log(u2)
            ):
                return base_ms * exp(z * self._jitter_sigma) / 1000.0

    def last_mile_rtt(self, rng: Optional[random.Random] = None) -> float:
        """Client to its own on-network recursive resolver, in seconds.

        This is the "1 ms cache hit" path of the paper's introduction; we
        use a few milliseconds with jitter.
        """
        uniform = (rng or self._rng).random
        while True:
            u1, u2 = uniform(), 1.0 - uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz, d = z * z / 4.0, 1.0 - u2
            lo = d + d * d / 2.0
            if zz <= 0.999 * lo or (
                zz <= 1.001 * (lo + d * d * d / (3.0 * u2)) and zz <= -log(u2)
            ):
                return self.last_mile_ms * exp(z * self._jitter_sigma) / 1000.0

    def nearest(self, src: Endpoint, candidates: list[Endpoint]) -> Endpoint:
        """The candidate with the lowest deterministic RTT from ``src``.

        This is how anycast routing picks a site (catchment).
        """
        if not candidates:
            raise ValueError("no candidates to choose from")
        return min(candidates, key=lambda dst: self.base_rtt_ms(src, dst))
