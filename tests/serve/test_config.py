"""ServeConfig validation and world registry."""

import pytest

from repro.serve.config import WORLD_BUILDERS, ServeConfig


def test_known_worlds():
    assert set(WORLD_BUILDERS) == {"cl", "uy", "googleco", "nl", "controlled"}


def test_unknown_world_rejected():
    with pytest.raises(ValueError, match="unknown world"):
        ServeConfig(world="narnia")


def test_multi_worker_requires_explicit_port():
    with pytest.raises(ValueError, match="SO_REUSEPORT"):
        ServeConfig(workers=2, port=0)
    ServeConfig(workers=2, port=5353)  # fine


def test_worker_and_budget_bounds():
    with pytest.raises(ValueError):
        ServeConfig(workers=0)
    with pytest.raises(ValueError):
        ServeConfig(max_inflight=0)


def test_cli_worlds_mirror_registry():
    from repro.cli import _SERVE_WORLDS

    assert set(_SERVE_WORLDS) == set(WORLD_BUILDERS)


def test_predict_flag_builds_predictive_resolver():
    from repro.serve.config import build_frontend

    frontend, _ = build_frontend(ServeConfig(world="nl", predict=True))
    assert frontend.resolver.policy.predict is True
    assert frontend.pump() == 0  # empty cache: nothing due, nothing breaks


def test_default_config_has_no_predict_policy():
    from repro.serve.config import build_frontend

    frontend, _ = build_frontend(ServeConfig(world="nl"))
    assert frontend.resolver.policy.predict is False
    assert frontend.pump() == 0  # pump is a safe no-op without predict


def test_a_serve_world_keeps_no_authoritative_query_log():
    """Nothing in serve reads the authoritative query logs, so a worker
    keeps none, not even after a runtime reset; ``auth.queries`` still
    counts every upstream query."""
    import random

    from repro.serve.config import build_frontend
    from tests.serve.test_response_memo import query_wire

    wall = [0.0]
    frontend, registry = build_frontend(
        ServeConfig(world="nl", time_scale=3600), wall_clock=lambda: wall[0]
    )
    rng = random.Random(1)
    ranks = rng.choices(range(500), weights=[1.0 / (rank + 1) for rank in range(500)], k=2000)
    for index, rank in enumerate(ranks):
        wall[0] = index * 500e-6
        wire = query_wire(f"www.domain{rank}.nl.", id=rng.randrange(1 << 16), edns=True)
        if frontend.fast_answer(wire, "127.0.0.1") is None:
            frontend.handle_wire(wire, "127.0.0.1")
    network = frontend.resolver.network
    servers = set(network._servers.values())
    assert [server for server in servers if server.query_log is not None] == []
    counted = registry.snapshot().metrics["auth.queries"]["values"]
    assert sum(counted.values()) == sum(server.queries_received for server in servers) > 500
    network.reset_runtime(0)
    assert [server for server in servers if server.query_log is not None] == []
