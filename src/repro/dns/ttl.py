"""TTL validation and formatting.

RFC 2181 §8 defines the TTL as an unsigned 31-bit value; values with the top
bit set must be treated as zero.  In practice TTLs in the wild range from
0 seconds (which defeats caching — paper §5.1.2) to two days (the root zone's
delegation TTL, 172800 s).
"""

from __future__ import annotations

import re

#: Largest valid TTL: 2**31 - 1 seconds (RFC 2181 §8).
TTL_MAX = 2**31 - 1

#: Common human-chosen TTL values (paper §5.1: "times reflect human-chosen
#: values — 10 minutes and 1, 24, or 48 hours").
MINUTE = 60
HOUR = 3600
DAY = 86400

_UNIT_SECONDS = {"s": 1, "m": MINUTE, "h": HOUR, "d": DAY, "w": 7 * DAY}

_DURATION_RE = re.compile(r"(\d+)([smhdw])", re.IGNORECASE)


class TTLError(ValueError):
    """Raised for TTL values outside the RFC 2181 range."""


def validate_ttl(ttl: int) -> int:
    """Return ``ttl`` unchanged if it is a valid RFC 2181 TTL, else raise."""
    if not isinstance(ttl, int) or isinstance(ttl, bool):
        raise TTLError(f"TTL must be an int, got {type(ttl).__name__}")
    if ttl < 0 or ttl > TTL_MAX:
        raise TTLError(f"TTL {ttl} outside [0, {TTL_MAX}]")
    return ttl


def parse_ttl(text: str | int) -> int:
    """Parse a TTL from seconds or a BIND-style duration string.

    >>> parse_ttl(300)
    300
    >>> parse_ttl("2d")
    172800
    >>> parse_ttl("1h30m")
    5400
    """
    if isinstance(text, int):
        return validate_ttl(text)
    stripped = text.strip()
    if stripped.isdigit():
        return validate_ttl(int(stripped))
    total = 0
    consumed = 0
    for match in _DURATION_RE.finditer(stripped):
        if match.start() != consumed:
            raise TTLError(f"unparseable TTL: {text!r}")
        total += int(match.group(1)) * _UNIT_SECONDS[match.group(2).lower()]
        consumed = match.end()
    if consumed != len(stripped) or consumed == 0:
        raise TTLError(f"unparseable TTL: {text!r}")
    return validate_ttl(total)


def format_ttl(ttl: int) -> str:
    """Human-friendly rendering used by the harness tables.

    >>> format_ttl(172800)
    '2d'
    >>> format_ttl(5400)
    '1h30m'
    >>> format_ttl(0)
    '0s'
    """
    validate_ttl(ttl)
    if ttl == 0:
        return "0s"
    parts: list[str] = []
    remaining = ttl
    for unit, seconds in (("w", 7 * DAY), ("d", DAY), ("h", HOUR), ("m", MINUTE)):
        count, remaining = divmod(remaining, seconds)
        if count:
            parts.append(f"{count}{unit}")
    if remaining:
        parts.append(f"{remaining}s")
    return "".join(parts)
