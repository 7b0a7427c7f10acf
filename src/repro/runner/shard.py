"""Deterministic partitioning of a campaign's unit of work.

A *campaign* is any embarrassingly parallel loop over independent units —
vantage points for an Atlas-style measurement, domains for a crawl,
clients for a controlled-TTL run.  :func:`plan_shards` cuts the unit
range into contiguous shards; each shard carries a seed derived stably
from ``(campaign_seed, shard_index)``, so a shard's simulated world and
RNG draws are a pure function of the plan and never of the worker that
happens to execute it.  That is the determinism contract the whole
runner rests on: the same plan produces the same merged results whether
shards run serially, on 4 workers, or resumed from checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["DEFAULT_SHARDS", "Shard", "derive_seed", "plan_shards"]

#: Default shard count when a campaign does not pin one.  A fixed
#: constant — deliberately *not* derived from the worker count — because
#: the shard plan determines every shard's seed and therefore the merged
#: results; tying it to ``parallelism`` would make scientific output
#: vary with the machine the campaign happened to run on.
DEFAULT_SHARDS = 4


def derive_seed(campaign_seed: int, shard_index: int) -> int:
    """A stable 63-bit seed for one shard of one campaign.

    Hash-based (not ``campaign_seed + shard_index``) so that campaigns
    with nearby seeds never share shard seeds, and independent of
    Python's per-process hash randomization.  The tag keeps shard seeds
    apart from other uses of the campaign seed (population, jitter, ...).
    """
    material = f"repro.runner.shard:{campaign_seed}:{shard_index}".encode("ascii")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, start + count)`` of a campaign."""

    index: int
    seed: int
    start: int
    count: int

    @property
    def stop(self) -> int:
        return self.start + self.count

    def unit_range(self) -> range:
        return range(self.start, self.stop)


def plan_shards(total_units: int, num_shards: int, campaign_seed: int) -> list[Shard]:
    """Split ``total_units`` into ``num_shards`` contiguous shards.

    Shard sizes differ by at most one (the first ``total % num`` shards
    take the extra unit).  Shards covering zero units are dropped, so a
    4-shard plan over 3 units yields 3 shards.  The plan is a pure
    function of its arguments — worker count plays no part.
    """
    if total_units < 0:
        raise ValueError(f"total_units must be >= 0, got {total_units}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    base, extra = divmod(total_units, num_shards)
    shards: list[Shard] = []
    start = 0
    for index in range(num_shards):
        count = base + (1 if index < extra else 0)
        if count == 0:
            continue
        shards.append(
            Shard(
                index=index,
                seed=derive_seed(campaign_seed, index),
                start=start,
                count=count,
            )
        )
        start += count
    return shards
