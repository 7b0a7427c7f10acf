"""Tests for repro.analysis.centricity."""

import pytest

from repro.analysis.centricity import (
    classify_active_ttls,
    classify_capped_or_child,
    classify_passive_groups,
    sticky_vps,
)


class TestActiveClassification:
    def test_uy_style(self):
        # Parent 172800, child 300: answers ≤300 are child-centric.
        ttls = [300, 250, 10, 172800, 171000, 21599]
        breakdown = classify_active_ttls(ttls, parent_ttl=172800, child_ttl=300)
        assert breakdown.child == 3
        assert breakdown.parent == 2
        assert breakdown.capped == 1
        assert breakdown.full_parent_ttl == 1

    def test_fractions(self):
        breakdown = classify_active_ttls([300] * 9 + [172800], 172800, 300)
        assert breakdown.child_fraction == pytest.approx(0.9)
        assert breakdown.parent_fraction == pytest.approx(0.1)

    def test_above_parent_is_other(self):
        breakdown = classify_active_ttls([200000], 172800, 300)
        assert breakdown.other == 1

    def test_requires_child_below_parent(self):
        with pytest.raises(ValueError):
            classify_active_ttls([1], parent_ttl=300, child_ttl=900)


class TestGoogleCoClassification:
    def test_fig2_shape(self):
        # Parent 900, child 345600: >900 child, ==21599 capped, ==900 parent.
        ttls = [345600] * 7 + [21599] * 2 + [900]
        breakdown = classify_capped_or_child(ttls, parent_ttl=900, child_ttl=345600)
        assert breakdown.child == 7
        assert breakdown.capped == 2
        assert breakdown.parent == 1
        assert breakdown.full_parent_ttl == 1

    def test_requires_child_above_parent(self):
        with pytest.raises(ValueError):
            classify_capped_or_child([1], parent_ttl=900, child_ttl=300)


class TestPassiveClassification:
    def test_multi_vs_single(self):
        groups = {
            ("10.0.0.1", "ns1"): [0.0, 3600.0],
            ("10.0.0.2", "ns1"): [5.0],
            ("10.0.0.2", "ns2"): [1.0, 2000.0, 9000.0],
        }
        breakdown = classify_passive_groups(groups)
        assert breakdown.groups == 3
        assert breakdown.multi_query_groups == 2
        assert breakdown.single_query_groups == 1
        # 10.0.0.2 is single for ns1 but multi for ns2 → child elsewhere.
        assert breakdown.single_but_child_elsewhere == 1

    def test_fractions(self):
        groups = {("r", i): [0.0] for i in range(48)}
        groups.update({("s", i): [0.0, 1.0] for i in range(52)})
        breakdown = classify_passive_groups(groups)
        assert breakdown.multi_fraction == pytest.approx(0.52)
        assert breakdown.single_fraction == pytest.approx(0.48)

    def test_empty(self):
        breakdown = classify_passive_groups({})
        assert breakdown.groups == 0
        assert breakdown.multi_fraction == 0.0


class TestSticky:
    def test_sticky_definition(self):
        per_vp = {
            "vp-old-only": [(10.0, ("old",)), (700.0, ("old",))],
            "vp-switched": [(10.0, ("old",)), (700.0, ("new",))],
            "vp-late-starter": [(900.0, ("old",))],
        }
        sticky = sticky_vps(per_vp, old_answer="old", first_round_end=600.0)
        assert sticky == {"vp-old-only"}

    def test_empty_rows_ignored(self):
        assert sticky_vps({"vp": []}, "old", 600.0) == set()
