"""Tests for the transport retry policy (BackoffPolicy, budget, jitter)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.metrics.registry import MetricsRegistry
from repro.net.topology import Region, Topology
from repro.net.transport import BackoffPolicy, Network, NetworkTimeout


def query():
    return Message.make_query("example.com", RdataType.A)


class TestPolicy:
    def test_defaults_match_legacy_fixed_interval(self):
        policy = BackoffPolicy(timeout=1.5, retries=2)
        rng = random.Random(0)
        assert [policy.attempt_wait(a, rng) for a in range(3)] == [1.5, 1.5, 1.5]

    def test_exponential_growth(self):
        policy = BackoffPolicy(timeout=1.0, retries=3, factor=2.0)
        rng = random.Random(0)
        assert [policy.attempt_wait(a, rng) for a in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_jitter_stays_in_band(self):
        policy = BackoffPolicy(timeout=1.0, retries=0, jitter=0.1)
        rng = random.Random(7)
        waits = [policy.attempt_wait(0, rng) for _ in range(200)]
        assert all(0.9 <= wait <= 1.1 for wait in waits)
        assert len(set(waits)) > 1  # actually random, not constant

    @pytest.mark.parametrize("kwargs", [
        dict(timeout=0.0),
        dict(retries=-1),
        dict(factor=0.5),
        dict(jitter=1.0),
        dict(jitter=-0.1),
        dict(budget=0.0),
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)


@pytest.fixture
def dead_rig():
    topology = Topology(seed=0)
    network = Network(seed=0)
    client = topology.endpoint_in_region(Region.EU, "cli")
    return network, client


class TestBudget:
    @settings(max_examples=40, deadline=None)
    @given(
        timeout=st.floats(min_value=0.1, max_value=3.0),
        retries=st.integers(min_value=0, max_value=5),
        factor=st.floats(min_value=1.0, max_value=3.0),
        jitter=st.floats(min_value=0.0, max_value=0.5),
        budget=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_total_retry_delay_respects_budget(
        self, timeout, retries, factor, jitter, budget, seed
    ):
        """Property: however the policy is shaped, the time burned waiting
        on a dead address never exceeds the budget."""
        topology = Topology(seed=0)
        network = Network(seed=seed)
        client = topology.endpoint_in_region(Region.EU, "cli")
        policy = BackoffPolicy(timeout=timeout, retries=retries, factor=factor,
                               jitter=jitter, budget=budget)
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, "203.0.113.99", query(), 0.0, backoff=policy)
        assert exc.value.elapsed <= budget + 1e-9

    def test_without_budget_all_attempts_run(self, dead_rig):
        network, client = dead_rig
        policy = BackoffPolicy(timeout=1.0, retries=3, factor=2.0)
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, "203.0.113.99", query(), 0.0, backoff=policy)
        assert exc.value.elapsed == pytest.approx(1.0 + 2.0 + 4.0 + 8.0)

    def test_budget_exhaustion_is_counted(self, dead_rig):
        network, client = dead_rig
        registry = MetricsRegistry()
        network.attach_metrics(registry)
        policy = BackoffPolicy(timeout=2.0, retries=5, budget=3.0)
        with pytest.raises(NetworkTimeout):
            network.exchange(client, "203.0.113.99", query(), 0.0, backoff=policy)
        payload = registry.snapshot().to_payload()["metrics"]
        assert payload["net.retry_budget_exhausted"]["value"] == 1
        assert payload["net.retries"]["value"] >= 1

    def test_network_default_policy_applies(self, dead_rig):
        network, client = dead_rig
        network.backoff = BackoffPolicy(timeout=0.5, retries=1)
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, "203.0.113.99", query(), 0.0)
        assert exc.value.elapsed == pytest.approx(1.0)

    def test_explicit_timeout_still_wins_without_policy(self, dead_rig):
        # The legacy call shape keeps its exact semantics (PR-3 perf tests
        # and the resolver depend on elapsed == (retries + 1) * timeout).
        network, client = dead_rig
        with pytest.raises(NetworkTimeout) as exc:
            network.exchange(client, "203.0.113.99", query(), 0.0,
                             timeout=1.5, retries=2)
        assert exc.value.elapsed == pytest.approx(4.5)
