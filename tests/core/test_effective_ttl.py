"""Tests for repro.core.effective_ttl — the paper's analytical model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.effective_ttl import (
    DelegationConfig,
    effective_record_ttl,
    effective_switch_time,
)
from repro.resolver.policy import ResolverPolicy

#: The §4 experiment configuration: NS 3600, A 7200, both sides equal.
PAPER_CONFIG_IN = DelegationConfig(
    parent_ns_ttl=3600, child_ns_ttl=3600,
    parent_glue_ttl=7200, child_address_ttl=7200, in_bailiwick=True,
)
PAPER_CONFIG_OUT = DelegationConfig(
    parent_ns_ttl=3600, child_ns_ttl=3600,
    parent_glue_ttl=None, child_address_ttl=7200, in_bailiwick=False,
)
#: The .uy configuration (§3.2).
UY_CONFIG = DelegationConfig(
    parent_ns_ttl=172800, child_ns_ttl=300,
    parent_glue_ttl=172800, child_address_ttl=120, in_bailiwick=True,
)


class TestValidation:
    def test_out_of_bailiwick_glue_rejected(self):
        with pytest.raises(ValueError):
            DelegationConfig(
                parent_ns_ttl=300, child_ns_ttl=300,
                parent_glue_ttl=300, in_bailiwick=False,
            )

    def test_bad_ttls_rejected(self):
        with pytest.raises(Exception):
            DelegationConfig(parent_ns_ttl=-1, child_ns_ttl=300)


class TestCentricity:
    def test_child_centric_uses_child_ttls(self):
        effective = effective_record_ttl(UY_CONFIG, ResolverPolicy.child_centric())
        assert effective.ns_ttl == 300
        assert effective.address_ttl == 120
        assert effective.controller == "child"

    def test_parent_centric_uses_parent_ttls(self):
        effective = effective_record_ttl(UY_CONFIG, ResolverPolicy.parent_centric())
        assert effective.ns_ttl == 172800
        assert effective.address_ttl == 172800
        assert effective.controller == "parent"

    def test_capping_applies(self):
        config = DelegationConfig(
            parent_ns_ttl=900, child_ns_ttl=345600,
            parent_glue_ttl=None, child_address_ttl=345600, in_bailiwick=False,
        )
        effective = effective_record_ttl(config, ResolverPolicy.capping(21599))
        assert effective.ns_ttl == 21599

    def test_floor_applies(self):
        policy = ResolverPolicy(ttl_floor=60)
        config = DelegationConfig(
            parent_ns_ttl=172800, child_ns_ttl=5,
            parent_glue_ttl=172800, child_address_ttl=5,
        )
        effective = effective_record_ttl(config, policy)
        assert effective.ns_ttl == 60

    def test_child_falls_back_to_glue_when_no_child_address(self):
        config = DelegationConfig(
            parent_ns_ttl=3600, child_ns_ttl=300, parent_glue_ttl=7200,
        )
        effective = effective_record_ttl(config, ResolverPolicy.child_centric())
        assert effective.address_ttl == 7200


class TestSwitchTime:
    """The §4 closed-form results."""

    def test_in_bailiwick_linked_switches_at_ns_expiry(self):
        # Figure 6: ~90 % switch at 60 minutes.
        assert effective_switch_time(PAPER_CONFIG_IN, ResolverPolicy.child_centric()) == 3600

    def test_in_bailiwick_unlinked_switches_at_address_expiry(self):
        # Figure 6's minority: old server used until 120 minutes.
        assert effective_switch_time(PAPER_CONFIG_IN, ResolverPolicy.unlinked()) == 7200

    def test_out_of_bailiwick_switches_at_address_expiry(self):
        # Figure 7: switch at 120 minutes.
        assert effective_switch_time(PAPER_CONFIG_OUT, ResolverPolicy.child_centric()) == 7200

    def test_sticky_never_switches(self):
        assert effective_switch_time(PAPER_CONFIG_IN, ResolverPolicy.sticky_resolver()) is None

    def test_parent_centric_holds_longest(self):
        config = DelegationConfig(
            parent_ns_ttl=172800, child_ns_ttl=3600,
            parent_glue_ttl=172800, child_address_ttl=7200,
        )
        # §4.4: OpenDNS holds the old address for the parent's 2 days.
        assert effective_switch_time(config, ResolverPolicy.parent_centric()) == 172800

    def test_switch_time_included_in_effective(self):
        effective = effective_record_ttl(PAPER_CONFIG_IN, ResolverPolicy.child_centric())
        assert effective.switch_time == 3600


ttl_values = st.integers(min_value=1, max_value=604800)


@given(ttl_values, ttl_values, ttl_values, ttl_values)
def test_effective_never_exceeds_any_configured_maximum(parent_ns, child_ns, glue, child_a):
    """Property: the effective TTL never exceeds the max of its inputs."""
    config = DelegationConfig(
        parent_ns_ttl=parent_ns, child_ns_ttl=child_ns,
        parent_glue_ttl=glue, child_address_ttl=child_a, in_bailiwick=True,
    )
    maximum = max(parent_ns, child_ns, glue, child_a)
    for policy in (
        ResolverPolicy.child_centric(),
        ResolverPolicy.parent_centric(),
        ResolverPolicy.capping(21599),
        ResolverPolicy.unlinked(),
    ):
        effective = effective_record_ttl(config, policy)
        assert effective.ns_ttl <= maximum
        if effective.address_ttl is not None:
            assert effective.address_ttl <= maximum
        if effective.switch_time is not None:
            assert effective.switch_time <= maximum


@given(ttl_values, ttl_values)
def test_linked_switch_never_later_than_unlinked(ns_ttl, a_ttl):
    config = DelegationConfig(
        parent_ns_ttl=ns_ttl, child_ns_ttl=ns_ttl,
        parent_glue_ttl=a_ttl, child_address_ttl=a_ttl, in_bailiwick=True,
    )
    linked = effective_switch_time(config, ResolverPolicy.child_centric())
    unlinked = effective_switch_time(config, ResolverPolicy.unlinked())
    assert linked <= unlinked
