"""LoadgenConfig refuses a bad retry ladder before any socket opens."""

import pytest

from repro.loadgen.client import LoadgenConfig


@pytest.mark.parametrize("kwargs, message", [
    (dict(timeout_s=0), "timeout 0 must be > 0"),
    (dict(retries=-1), "retries -1 must be >= 0"),
])
def test_a_bad_retry_ladder_is_refused_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LoadgenConfig(**kwargs)
