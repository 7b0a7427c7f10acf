"""Completed-shard results spilled to a run directory.

A :class:`CheckpointStore` lets an interrupted campaign resume without
recomputing completed shards: every finished shard's payload is pickled
to ``shard-NNNN.pkl`` (written atomically via a temp file + rename), and
a ``manifest.json`` records the campaign fingerprint — the parameters
that determine the shard plan and per-shard results.  Reopening a run
directory with a different fingerprint fails loudly instead of silently
merging results from a different campaign.

Shard-boundary checkpoints are too coarse for 100k+-query campaigns, so
the store also holds **world snapshots**: versioned ``wsnap-NNNN.pkl``
records carrying a shard's *mid-run* campaign state (the measurement,
its run-state cursor, and the metrics registry, pickled as one graph so
object identity — e.g. the registry the world's fabric holds — is
preserved).  A killed worker resumes from its last snapshot instead of
restarting the shard; completing a shard discards its snapshot.  The
snapshot record is versioned independently of the shard payload layout
(:data:`_WSNAP_VERSION`) because it stores live object graphs, not
codec envelopes.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Any, Optional

__all__ = ["CheckpointMismatch", "CheckpointStore"]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 1
#: Version of the world-snapshot record layout (mid-shard resume state).
#: The record holds live object graphs, so a change to the attribute set
#: of anything inside one is a layout change too: 2 = resolver caches
#: with a single expiry heap and per-prefix-length ECS tables; 3 = the
#: run state holds the ``ResultSet`` table being filled, not a row list;
#: 4 = the registry holds collectors over owners' count slots, not
#: instruments; 5 = caches keep no dead-mark sets and entries no
#: dependents list or source zone; 6 = stubs hold their bound client leg,
#: not the latency model, and servers a public ``log_queries`` flag;
#: 7 = resolvers hold a public ``track_arrival`` hook; 8 = histograms hold
#: a pending batch; 9 = resolver policies hold plain ``predict``/``ecs``/
#: ``push`` flags, not knob-bundle objects, and resolvers no shuffle RNG;
#: 10 = servers hold a ``site`` the fabric reads, zones a public
#: ``compiled`` table and resolvers a self-filling query-skeleton table;
#: 11 = zones compile into a self-filling table of shared responses,
#: messages and questions are slotted, and cache links hold their target
#: entry.
#: A record naming a class this build lacks fails to unpickle before its
#: version is read; :meth:`CheckpointStore.load_world_snapshot` reports
#: that as a mismatch too.
_WSNAP_VERSION = 11


class CheckpointMismatch(RuntimeError):
    """The run directory belongs to a different campaign."""


def _shard_filename(index: int) -> str:
    return f"shard-{index:04d}.pkl"


def _wsnap_filename(index: int) -> str:
    return f"wsnap-{index:04d}.pkl"


class CheckpointStore:
    """Per-shard result spill for one campaign run."""

    def __init__(self, run_dir: str | Path, fingerprint: dict[str, Any]) -> None:
        self.run_dir = Path(run_dir)
        self.fingerprint = _normalize(fingerprint)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._check_or_write_manifest()

    # -- manifest -----------------------------------------------------------
    def _check_or_write_manifest(self) -> None:
        path = self.run_dir / _MANIFEST
        if path.exists():
            recorded = json.loads(path.read_text(encoding="utf-8"))
            if recorded.get("version") != _FORMAT_VERSION:
                raise CheckpointMismatch(
                    f"{path}: unsupported checkpoint format "
                    f"{recorded.get('version')!r}"
                )
            if recorded.get("fingerprint") != self.fingerprint:
                raise CheckpointMismatch(
                    f"{path} was written by a different campaign:\n"
                    f"  recorded: {recorded.get('fingerprint')}\n"
                    f"  current:  {self.fingerprint}"
                )
            return
        payload = {"version": _FORMAT_VERSION, "fingerprint": self.fingerprint}
        _atomic_write_bytes(
            path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        )

    # -- shard payloads ------------------------------------------------------
    def save(self, shard_index: int, payload: Any) -> None:
        path = self.run_dir / _shard_filename(shard_index)
        _atomic_write_bytes(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        # A completed shard's mid-run snapshot is obsolete.
        self.discard_world_snapshot(shard_index)

    def load(self, shard_index: int) -> Any:
        path = self.run_dir / _shard_filename(shard_index)
        with path.open("rb") as handle:
            return pickle.load(handle)

    def has(self, shard_index: int) -> bool:
        return (self.run_dir / _shard_filename(shard_index)).exists()

    def completed_indices(self) -> set[int]:
        done: set[int] = set()
        for path in self.run_dir.glob("shard-*.pkl"):
            stem = path.stem.split("-", 1)[-1]
            if stem.isdigit():
                done.add(int(stem))
        return done

    def discard(self, shard_index: int) -> None:
        path = self.run_dir / _shard_filename(shard_index)
        if path.exists():
            path.unlink()

    def clear(self) -> None:
        """Drop every shard payload and world snapshot (keeps the manifest)."""
        for index in self.completed_indices():
            self.discard(index)
        for path in self.run_dir.glob("wsnap-*.pkl"):
            path.unlink()

    # -- world snapshots (mid-shard resume) ----------------------------------
    def save_world_snapshot(self, shard_index: int, state: Any) -> None:
        """Atomically spill one shard's mid-run campaign state.

        ``state`` is pickled as a single object graph; callers pass every
        piece that must share identity (measurement, run state, metrics
        registry) in one container.
        """
        record = {"version": _WSNAP_VERSION, "shard": shard_index, "state": state}
        path = self.run_dir / _wsnap_filename(shard_index)
        _atomic_write_bytes(
            path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def load_world_snapshot(self, shard_index: int) -> Optional[Any]:
        """The shard's saved mid-run state, or ``None`` when absent."""
        path = self.run_dir / _wsnap_filename(shard_index)
        if not path.exists():
            return None
        with path.open("rb") as handle:
            try:
                record = pickle.load(handle)
            except (ImportError, AttributeError) as error:
                raise CheckpointMismatch(
                    f"{path}: world snapshot names code this build lacks ({error})"
                ) from error
        if not isinstance(record, dict) or record.get("version") != _WSNAP_VERSION:
            raise CheckpointMismatch(
                f"{path}: unsupported world-snapshot version "
                f"{record.get('version') if isinstance(record, dict) else record!r}"
            )
        if record.get("shard") != shard_index:
            raise CheckpointMismatch(
                f"{path}: snapshot belongs to shard {record.get('shard')!r}, "
                f"not {shard_index}"
            )
        return record["state"]

    def has_world_snapshot(self, shard_index: int) -> bool:
        return (self.run_dir / _wsnap_filename(shard_index)).exists()

    def discard_world_snapshot(self, shard_index: int) -> None:
        path = self.run_dir / _wsnap_filename(shard_index)
        if path.exists():
            path.unlink()


def _normalize(fingerprint: dict[str, Any]) -> dict[str, Any]:
    """Round-trip through JSON so equality checks compare what's stored."""
    try:
        return json.loads(json.dumps(fingerprint, sort_keys=True))
    except TypeError as error:
        raise TypeError(
            f"campaign fingerprint must be JSON-serializable: {error}"
        ) from None


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    # One temporary name per process: pool workers that open a fresh run
    # directory together all write its manifest, and a shared name lets
    # one worker rename away the file another is about to rename.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
