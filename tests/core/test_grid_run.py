"""``GridRun`` and the cell scaffold, checked once for every grid campaign.

Every campaign with ``axes`` returns the same container from
``run_grid``; these tests run each at toy size and hold the accessors to
the spec's own axis declaration, so a new grid campaign is covered by
adding one ``GRIDS`` row.
"""

import functools
import itertools

import pytest

from repro.core import scenarios
from repro.core.campaign import CAMPAIGNS, run_grid
from repro.core.worlds import build_outage_world, build_push_world
from repro.faults import FaultInjector, FaultPlan, FaultSpec, injector
from repro.metrics.registry import MetricsRegistry

#: campaign -> (chosen axis values, shared parameters, a cell field to profile).
GRIDS = {
    "t10-controlled": (
        {"label": ("TTL60-u", "TTL60-s")},
        {"probes": 4, "duration": 600.0},
        "auth_queries",
    ),
    "ddos": (
        {"ttl": (60, 3600)},
        {"attack_seconds": 600.0, "probe_interval": 300.0, "attack_start": 150.0,
         "fault_plan": None},
        "availability",
    ),
    "prefetch": (
        {"ttl": (60, 86400)},
        {"names": 4, "rate_qps": 0.5, "duration": 120.0},
        "p99_ms",
    ),
    "ecs": (
        {"ttl": (60, 3600)},
        {"subnets": 4, "rate_qps": 0.5, "duration": 120.0},
        "hit_rate",
    ),
    "push": (
        {"ttl": (60, 86400)},
        {"seats": 2, "changes": 2, "probe_interval": 60.0, "duration": 600.0,
         "fault_plan": None},
        "auth_queries",
    ),
}


def _grid(name, parallelism=None):
    """``name`` at toy size."""
    axes, fixed, _ = GRIDS[name]
    return run_grid(name, 7, axes, fixed, parallelism)


#: The serial run, shared by the tests that only read it.
_serial = functools.cache(_grid)


def _axis_values(name):
    """Each axis' values in this run, in ``spec.axes`` order."""
    chosen = GRIDS[name][0]
    return [chosen.get(axis, valid) for axis, valid in CAMPAIGNS[name].axes.items()]


def test_every_grid_campaign_is_covered():
    assert sorted(GRIDS) == sorted(
        name for name, spec in CAMPAIGNS.items() if spec.axes
    )


@pytest.mark.parametrize("name", sorted(GRIDS))
class TestGridRun:
    def test_cell_takes_values_in_the_specs_axes_order(self, name):
        run = _serial(name)
        axes = tuple(CAMPAIGNS[name].axes)
        combos = list(itertools.product(*_axis_values(name)))
        assert len(run.cells) == len(combos)
        # Grid order is the axes' product, outermost first.
        for cell, combo in zip(run.cells, combos):
            assert tuple(getattr(cell, axis) for axis in axes) == combo
            assert run.cell(*combo) is cell

    def test_unknown_value_raises_keyerror_naming_the_axes(self, name):
        run = _serial(name)
        known = next(itertools.product(*_axis_values(name)))
        with pytest.raises(KeyError) as excinfo:
            run.cell(*known[:-1], "no-such-value")
        for axis in CAMPAIGNS[name].axes:
            assert axis in str(excinfo.value)
        with pytest.raises(KeyError):
            run.cell()  # too few values is a miss, not a partial match

    def test_profile_is_keyed_by_the_innermost_axis(self, name):
        run = _serial(name)
        field = GRIDS[name][2]
        *outer_values, inner_values = _axis_values(name)
        for outer in itertools.product(*outer_values):
            profile = run.profile(field, *outer)
            assert list(profile) == list(inner_values)
            for value, observed in profile.items():
                assert observed == getattr(run.cell(*outer, value), field)

    def test_shared_parameters_read_back_as_attributes(self, name):
        run = _serial(name)
        assert run.campaign == name
        for parameter, value in GRIDS[name][1].items():
            assert getattr(run, parameter) == value
        with pytest.raises(AttributeError, match="no_such_parameter"):
            run.no_such_parameter

    def test_serial_and_parallel_cells_are_equal(self, name):
        serial, parallel = _serial(name), _grid(name, parallelism=2)
        assert parallel.cells == serial.cells
        assert parallel.metrics.without_host() == serial.metrics.without_host()


# ------------------------------------------------------------ _attach_faults


USER_PLAN = FaultPlan(
    faults=(
        FaultSpec(kind="loss", start=0.0, duration=300.0, rate=0.2),
        FaultSpec(kind="servfail", start=60.0, duration=60.0),
    ),
    name="user-plan",
    seed=11,
)
UNNAMED_PLAN = FaultPlan(faults=USER_PLAN.faults, seed=11)


@pytest.fixture
def armed(monkeypatch):
    """The ``(plan, injector seed)`` each cell arms its world with."""
    seen = []

    class Spy(FaultInjector):
        def __init__(self, plan, seed=0):
            seen.append((plan, seed))
            super().__init__(plan, seed=seed)

    monkeypatch.setattr(injector, "FaultInjector", Spy)
    return seen


def _expected(own, name, seed, user):
    """What the two hand-written blocks composed: own specs first, the
    user's after; the user's seed — and name, when it has one — win."""
    if user is None:
        return FaultPlan(faults=tuple(own), name=name, seed=seed)
    return FaultPlan(
        faults=(*own, *user.faults), name=user.name or name, seed=user.seed
    )


@pytest.mark.parametrize("user", [None, USER_PLAN, UNNAMED_PLAN])
def test_ddos_tier_arms_the_attack_then_the_users_plan(armed, user):
    scenarios._run_ddos_tier(
        ttl=60, serve_stale=False, seed=5, attack_seconds=600.0,
        probe_interval=300.0, attack_start=150.0,
        fault_plan=user and user.to_payload(), metrics=MetricsRegistry(),
    )
    attack = FaultSpec(
        kind="server_outage", start=150.0, duration=600.0,
        target=build_outage_world(60, 5).target_address,
    )
    [(plan, injector_seed)] = armed
    assert plan.to_payload() == _expected([attack], "ddos", 5, user).to_payload()
    assert injector_seed == 5


@pytest.mark.parametrize("user", [None, USER_PLAN, UNNAMED_PLAN])
@pytest.mark.parametrize("family", ["renumbering", "ddos"])
def test_push_cell_arms_its_schedule_then_the_users_plan(armed, family, user):
    scenarios._run_push_cell(
        plan=family, mode="poll", ttl=60, seed=5, seats=1, changes=2,
        probe_interval=60.0, duration=600.0,
        fault_plan=user and user.to_payload(), metrics=MetricsRegistry(),
    )
    testbed = build_push_world(60, 5)
    own = list(FaultPlan.renumbering(testbed.content_name, [200.0, 400.0]).faults)
    if family == "ddos":
        own.append(
            FaultSpec(kind="server_outage", start=270.0, duration=120.0,
                      target=testbed.target_address)
        )
    [(plan, injector_seed)] = armed
    expected = _expected(own, f"push-{family}", 5, user)
    assert plan.to_payload() == expected.to_payload()
    assert injector_seed == 5
