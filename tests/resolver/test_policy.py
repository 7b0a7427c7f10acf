"""Tests for repro.resolver.policy."""

import dataclasses

import pytest

from repro.resolver.policy import Centricity, ResolverPolicy


class TestArchetypes:
    def test_child_centric_defaults(self):
        policy = ResolverPolicy.child_centric()
        assert policy.centricity is Centricity.CHILD
        assert policy.ttl_cap is None
        assert policy.link_inbailiwick_glue
        assert policy.target_fetch
        assert not policy.answer_from_referral

    def test_parent_centric(self):
        policy = ResolverPolicy.parent_centric()
        assert policy.centricity is Centricity.PARENT
        assert policy.answer_from_referral
        assert not policy.target_fetch

    def test_capping_default_is_google_value(self):
        assert ResolverPolicy.capping().ttl_cap == 21599

    def test_sticky(self):
        policy = ResolverPolicy.sticky_resolver()
        assert policy.sticky and not policy.target_fetch

    def test_local_root(self):
        policy = ResolverPolicy.local_root()
        assert policy.rfc7706_local_root
        assert policy.centricity is Centricity.PARENT

    def test_unlinked(self):
        assert not ResolverPolicy.unlinked().link_inbailiwick_glue


class TestValidation:
    def test_cap_below_floor_rejected(self):
        with pytest.raises(ValueError):
            ResolverPolicy(ttl_cap=10, ttl_floor=60)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ResolverPolicy().sticky = True  # type: ignore[misc]


class TestWith:
    def test_with_overrides(self):
        policy = ResolverPolicy.child_centric().with_(serve_stale=True)
        assert policy.serve_stale
        assert policy.centricity is Centricity.CHILD

    def test_with_does_not_mutate(self):
        base = ResolverPolicy.child_centric()
        base.with_(serve_stale=True)
        assert not base.serve_stale


class TestDescribe:
    def test_plain_child(self):
        assert ResolverPolicy.child_centric().describe() == "child"

    def test_composite(self):
        policy = ResolverPolicy.capping(21599).with_(serve_stale=True)
        label = policy.describe()
        assert "cap21599" in label and "serve-stale" in label and "child" in label

    def test_sticky_label(self):
        assert "sticky" in ResolverPolicy.sticky_resolver().describe()

    def test_unlinked_label(self):
        assert "unlinked" in ResolverPolicy.unlinked().describe()

    def test_rfc7706_label(self):
        assert "rfc7706" in ResolverPolicy.local_root().describe()


class TestSurface:
    """Every settable value of a resolver, so that a new knob shows up as
    an edit to this list.  A value every caller sets alike is a constant."""

    def test_field_names(self):
        assert [field.name for field in dataclasses.fields(ResolverPolicy)] == [
            "centricity", "ttl_cap", "ttl_floor", "serve_stale", "rfc7706_local_root",
            "link_inbailiwick_glue", "sticky", "answer_from_referral", "target_fetch",
            "prefetch", "predict", "ecs", "push",
        ]

    def test_features_are_switches(self):
        off = ResolverPolicy()
        armed = off.with_(predict=True, ecs=True, push=True)
        for feature in ("predict", "ecs", "push"):
            assert getattr(off, feature) is False
            assert getattr(armed, feature) is True
        assert ResolverPolicy.predictive().predict is True
        assert ResolverPolicy.pushing().push is True
