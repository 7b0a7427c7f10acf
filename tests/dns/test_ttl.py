"""Tests for repro.dns.ttl."""

import pytest

from repro.dns.ttl import (
    TTL_MAX,
    TTLError,
    format_ttl,
    parse_ttl,
    validate_ttl,
)


class TestValidate:
    def test_zero_valid(self):
        assert validate_ttl(0) == 0

    def test_max_valid(self):
        assert validate_ttl(TTL_MAX) == TTL_MAX

    def test_negative_rejected(self):
        with pytest.raises(TTLError):
            validate_ttl(-1)

    def test_beyond_max_rejected(self):
        with pytest.raises(TTLError):
            validate_ttl(TTL_MAX + 1)

    def test_bool_rejected(self):
        with pytest.raises(TTLError):
            validate_ttl(True)

    def test_float_rejected(self):
        with pytest.raises(TTLError):
            validate_ttl(3.5)


class TestParse:
    def test_plain_int(self):
        assert parse_ttl(300) == 300

    def test_digit_string(self):
        assert parse_ttl("172800") == 172800

    def test_units(self):
        assert parse_ttl("2d") == 172800
        assert parse_ttl("1h") == 3600
        assert parse_ttl("10m") == 600
        assert parse_ttl("30s") == 30
        assert parse_ttl("1w") == 604800

    def test_compound(self):
        assert parse_ttl("1h30m") == 5400

    def test_case_insensitive(self):
        assert parse_ttl("2D") == 172800

    def test_garbage_rejected(self):
        with pytest.raises(TTLError):
            parse_ttl("soon")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TTLError):
            parse_ttl("1hX")

    def test_empty_rejected(self):
        with pytest.raises(TTLError):
            parse_ttl("")


class TestFormat:
    def test_zero(self):
        assert format_ttl(0) == "0s"

    def test_two_days(self):
        assert format_ttl(172800) == "2d"

    def test_compound(self):
        assert format_ttl(5400) == "1h30m"

    def test_seconds_remainder(self):
        assert format_ttl(61) == "1m1s"

    def test_round_trip(self):
        for ttl in (0, 1, 60, 300, 3600, 7200, 86400, 172800, 604800, 90061):
            assert parse_ttl(format_ttl(ttl)) == ttl
