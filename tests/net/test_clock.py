"""Tests for repro.net.clock."""

import pytest

from repro.net.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(10.0).now == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_repr(self):
        assert "12.000" in repr(SimClock(12.0))
