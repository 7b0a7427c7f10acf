"""The squeezed acceptance test of the RTT jitter draw.

``LatencyModel.rtt`` and ``last_mile_rtt`` run ``normalvariate``'s
Kinderman–Monahan loop with its test ``zz <= -log(u2)`` bracketed by
``0.999·lo`` and ``1.001·hi``, where ``lo = d + d²/2`` and
``hi = lo + d³/(3·u2)`` bound ``-ln(u2)`` for ``d = 1 - u2``.  The squeeze
must decide every try exactly as the float comparison does; these tests
drive one try with scripted uniforms and compare the decision with
``z*z/4.0 <= -log(u2)``:

- a hypothesis property over ``(u1, u2)`` pairs, drawn both anywhere and
  close to the acceptance boundary;
- explicit pairs at the extremes of ``u2`` (``1.0``, ``2**-53`` and the
  floats just below 1) and with ``zz`` a few ulps either side of
  ``-log(u2)`` and of each widened bound;
- a structure pin: the squeeze leaves ``log`` to about one draw in ten.
"""

import math
import random
from random import NV_MAGICCONST

from hypothesis import example, given, settings, strategies as st

from repro.net.latency import LatencyModel
from repro.net.topology import Region, Topology
from tests.metrics.test_count_once_structure import calls


class Script:
    """An rng whose ``random`` returns ``values`` in turn."""

    def __init__(self, *values: float) -> None:
        self.values = values
        self.taken = 0

    def random(self) -> float:
        value = self.values[self.taken]
        self.taken += 1
        return value


#: A second try that always accepts: ``u1 = 0.5`` makes ``z = 0``.
ACCEPT = (0.5, 0.0)


def accepted(u1: float, r: float) -> bool:
    """Whether both samplers accept the first try ``(u1, r)``, where the
    loop's ``u2`` is ``1.0 - r``; each also checks its returned float."""
    model = LatencyModel(jitter_sigma=0.25, last_mile_ms=3.0)
    src, dst = (Topology().endpoint_in_region(region) for region in (Region.EU, Region.NA))
    base_ms = model.base_rtt_ms(src, dst)
    decisions = set()
    for sample, scale in (
        (lambda rng: model.last_mile_rtt(rng), 3.0),
        (lambda rng: model.rtt(src, dst, rng), base_ms),
    ):
        script = Script(u1, r, *ACCEPT)
        drawn = sample(script)
        first = script.taken == 2
        z = NV_MAGICCONST * (u1 - 0.5) / (1.0 - r) if first else 0.0
        assert drawn == scale * math.exp(z * 0.25) / 1000.0
        decisions.add(first)
    (decision,) = decisions
    return decision


def stdlib_accepts(u1: float, r: float) -> bool:
    u2 = 1.0 - r
    z = NV_MAGICCONST * (u1 - 0.5) / u2
    return z * z / 4.0 <= -math.log(u2)


def u1_for(zz: float, u2: float, sign: int) -> float:
    """The ``u1`` whose try has ``z*z/4.0`` close to ``zz``."""
    return 0.5 + sign * 2.0 * math.sqrt(zz) * u2 / NV_MAGICCONST


def bounds(u2: float) -> tuple[float, float, float]:
    """``-log(u2)`` and the widened squeeze bounds around it."""
    d = 1.0 - u2
    lo = d + d * d / 2.0
    return -math.log(u2), 0.999 * lo, 1.001 * (lo + d * d * d / (3.0 * u2))


#: Second uniforms ``r`` (``u2 = 1.0 - r``): ``u2`` of 1.0, of 2**-53, of
#: ``1 - k·2**-53`` for k ≤ 4, and a spread in between.
EDGE_RS = (0.0, 1.0 - 2**-53, *(k * 2**-53 for k in range(1, 5)), 2**-30, 1e-3, 0.25, 0.5, 0.9)


def walk(x: float, steps: int) -> list[float]:
    """``x`` and the ``steps`` floats either side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def edge_pairs() -> list[tuple[float, float]]:
    """Pairs whose ``zz`` sits a few ulps either side of ``-log(u2)`` and
    of each widened bound (as close as ``u1``'s own spacing allows)."""
    pairs = []
    for r in EDGE_RS:
        u2 = 1.0 - r
        pairs.append((0.5, r))  # z = 0
        for target in bounds(u2):
            for sign in (-1, 1):
                centre = u1_for(target, u2, sign)
                pairs.extend((u1, r) for u1 in walk(centre, 3) if 0.0 <= u1 < 1.0)
    return pairs


EDGES = edge_pairs()


def test_the_squeeze_decides_edge_pairs_as_log_does():
    assert len(EDGES) > 400
    assert [pair for pair in EDGES if accepted(*pair) != stdlib_accepts(*pair)] == []


def test_the_edge_pairs_straddle_the_acceptance_boundary():
    """Near ``-log(u2)`` the explicit pairs fall on both sides of it, so the
    test above checks decisions that the gap's comparison makes."""
    for r in (0.25, 0.5, 0.9, 2**-53):
        u2 = 1.0 - r
        near = walk(u1_for(-math.log(u2), u2, 1), 3)
        assert {stdlib_accepts(u1, r) for u1 in near} == {True, False}


UNIFORM = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def near_boundary(draw) -> tuple[float, float]:
    """A pair whose ``zz`` is within a few percent of ``-log(u2)`` or of a
    widened bound: where a squeeze could decide wrongly."""
    r = draw(UNIFORM)
    u2 = 1.0 - r
    target = draw(st.sampled_from(bounds(u2)))
    u1 = u1_for(target * draw(st.floats(0.97, 1.03)), u2, draw(st.sampled_from((-1, 1))))
    return (min(max(u1, 0.0), math.nextafter(1.0, 0.0)), r)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(UNIFORM, UNIFORM), near_boundary()))
@example((0.5, 0.0))
@example((0.0, 1.0 - 2**-53))
@example((math.nextafter(1.0, 0.0), 1.0 - 2**-53))
@example((0.5 + 2**-53, 2**-53))
def test_the_squeeze_decides_every_pair_as_log_does(pair):
    assert accepted(*pair) == stdlib_accepts(*pair)


def test_seeded_draws_seldom_call_log():
    """N draws call ``log`` at most 0.15·N times (about 0.10·N): only a try
    in the squeeze's gap needs it.  ``exp`` runs once per draw."""
    draws = 2000
    model = LatencyModel(seed=11, jitter_sigma=0.25)
    src, dst = (Topology().endpoint_in_region(region) for region in (Region.EU, Region.AS))
    rng = random.Random(5)

    def sample():
        for _ in range(draws // 2):
            model.rtt(src, dst, rng)
            model.last_mile_rtt(rng)

    model.rtt(src, dst, rng)  # memoize the path's base RTT outside the count
    seen = calls(sample)
    assert seen["exp"] == draws
    assert 0 < seen["log"] <= 0.15 * draws
