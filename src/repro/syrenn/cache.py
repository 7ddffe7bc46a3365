"""The two-tier partition cache of SyReNN decompositions.

SyReNN decompositions are the dominant cost of exact verification, and the
repair driver recomputes them constantly: every round re-verifies the same
regions, and the DDNN's activation channel — the network the decomposition
depends on — never changes under value-channel repair (Theorem 4.6).  The
:class:`PartitionCache` therefore keys decomposition payloads by
``(network fingerprint, geometry digest)`` and stores them in two tiers:

* an in-memory LRU dictionary, bounded by ``max_entries``, for the repeated
  rounds of a single driver run;
* an optional disk tier of ``.npz`` files under ``REPRO_CACHE_DIR`` (the
  same root the model zoo and counterexample checkpoints use), which
  survives process restarts and is shared by every process pointing at the
  same directory.

Payloads are flat ``name → array`` dictionaries (whatever
:func:`repro.utils.serialization.save_arrays` can persist); the exact
verifier owns the encoding of linear regions into payloads.  Hit, miss, and
eviction counters are kept per tier and surfaced through
:meth:`PartitionCache.as_dict` so benchmark and daemon reports can show
where decomposition time actually went.

One cache may be shared by concurrent threads (the repair daemon hands the
same instance to every ``syrenn`` job): a lock guards both tiers and the
counters, so every lookup is counted exactly once.
"""

from __future__ import annotations

import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.utils.serialization import default_cache_dir, load_arrays, save_arrays

__all__ = ["CacheKey", "CacheStats", "PartitionCache", "TierStats"]

#: A cache key: (network fingerprint, geometry digest).
CacheKey = tuple[str, str]


def _record_request(tier: str, result: str) -> None:
    """Mirror one tier lookup into the metrics registry (obs-enabled only)."""
    obs.counter(
        "repro_cache_requests_total",
        "Partition-cache lookups by tier and outcome.",
        labels=("tier", "result"),
    ).inc(tier=tier, result=result)


def _record_put(tier: str) -> None:
    obs.counter(
        "repro_cache_puts_total",
        "Partition-cache payload stores by tier.",
        labels=("tier",),
    ).inc(tier=tier)


@dataclass
class TierStats:
    """Hit/miss/eviction counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a JSON-ready dictionary."""
        return dict(self.__dict__)


@dataclass
class CacheStats:
    """Per-tier counters of a :class:`PartitionCache`."""

    memory: TierStats = field(default_factory=TierStats)
    disk: TierStats = field(default_factory=TierStats)

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory.hits + self.disk.hits

    @property
    def misses(self) -> int:
        """Full misses (the key was in neither tier)."""
        return self.disk.misses

    def as_dict(self) -> dict:
        """The per-tier counters as a JSON-ready dictionary."""
        return {"memory": self.memory.as_dict(), "disk": self.disk.as_dict()}


class PartitionCache:
    """An in-memory LRU in front of an optional ``REPRO_CACHE_DIR`` disk tier.

    Parameters
    ----------
    max_entries:
        Capacity of the memory tier; the least-recently-used entry is
        evicted when a put would exceed it.  Entries are small (a few
        vertex arrays), and a capacity below the working set degrades to
        disk-tier speed under LRU scan patterns, so the default is sized
        for specs with a few thousand linear regions.
    directory:
        Root of the disk tier.  Defaults to
        ``<REPRO_CACHE_DIR>/partitions``.
    disk:
        Whether to read/write the disk tier at all.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        directory: str | Path | None = None,
        *,
        disk: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self.disk = bool(disk)
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir() / "partitions"
        )
        self._memory: OrderedDict[CacheKey, dict[str, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._memory or (self.disk and self._disk_path(key).exists())

    def _disk_path(self, key: CacheKey) -> Path:
        network_hash, geometry_hash = key
        return self.directory / f"{network_hash}__{geometry_hash}.npz"

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> dict[str, np.ndarray] | None:
        """Look up a payload, promoting disk hits into the memory tier."""
        with self._lock:
            return self._get_locked(key)

    def _get_locked(self, key: CacheKey) -> dict[str, np.ndarray] | None:
        track = obs.enabled()
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.stats.memory.hits += 1
            if track:
                _record_request("memory", "hit")
            return payload
        self.stats.memory.misses += 1
        if track:
            _record_request("memory", "miss")
        payload = self._load_disk(key) if self.disk else None
        if payload is None:
            self.stats.disk.misses += 1
            if track:
                _record_request("disk", "miss")
            return None
        self.stats.disk.hits += 1
        if track:
            _record_request("disk", "hit")
        self._insert_memory(key, payload)
        return payload

    def _load_disk(self, key: CacheKey) -> dict[str, np.ndarray] | None:
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            return load_arrays(path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError):
            # A corrupt or torn write: treat as a miss and drop the file so
            # the next put can replace it instead of crashing forever.
            path.unlink(missing_ok=True)
            return None

    def put(self, key: CacheKey, payload: dict[str, np.ndarray]) -> None:
        """Store a payload in both tiers.

        The disk write goes through a temporary file plus an atomic rename,
        so concurrent readers in other processes never observe a torn file.
        """
        with self._lock:
            self._insert_memory(key, payload)
            self.stats.memory.puts += 1
            if obs.enabled():
                _record_put("memory")
            if self.disk and not self._disk_path(key).exists():
                self._write_disk(key, payload)
                self.stats.disk.puts += 1
                if obs.enabled():
                    _record_put("disk")

    def _write_disk(self, key: CacheKey, payload: dict[str, np.ndarray]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        # The suffix must stay ".npz" or np.savez would append one.
        handle, temp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp.npz")
        os.close(handle)
        try:
            save_arrays(Path(temp_name), payload)
            os.replace(temp_name, self._disk_path(key))
        finally:
            if os.path.exists(temp_name):
                os.unlink(temp_name)

    def _insert_memory(self, key: CacheKey, payload: dict[str, np.ndarray]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        evicted = 0
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            evicted += 1
        self.stats.memory.evictions += evicted
        if evicted and obs.enabled():
            obs.counter(
                "repro_cache_evictions_total",
                "Memory-tier LRU evictions from the partition cache.",
                labels=("tier",),
            ).inc(evicted, tier="memory")

    # ------------------------------------------------------------------
    def memory_keys(self) -> list[CacheKey]:
        """Keys of the memory tier, least-recently-used first."""
        with self._lock:
            return list(self._memory)

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._memory.clear()

    def as_dict(self) -> dict:
        """A JSON-ready summary (tier counters plus configuration)."""
        with self._lock:
            return {
                "max_entries": self.max_entries,
                "memory_entries": len(self._memory),
                "disk_enabled": self.disk,
                **self.stats.as_dict(),
            }
