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
:func:`repro.utils.serialization.save_arrays` can persist).  The exact
verifier stores one entry per specification region: its linear regions as
three stacked arrays, ``vertices`` ``(v, n)``, CSR ``offsets`` ``(k + 1,)``
over those rows and ``interiors`` ``(k, n)``, plus the 0-d string
``format = "region-parts/1"`` (:func:`repro.syrenn.regions.parts_payload`).
A reader passes a ``decode`` function to :meth:`PartitionCache.get_many`;
a payload it cannot decode (another format, or the per-region
``num_regions``/``vertices_i``/``interior_i`` entries of earlier versions)
counts as a miss and leaves both tiers, so the fresh decomposition's
``put`` replaces it.  Hit, miss, and eviction counters are kept per tier
and surfaced through :meth:`PartitionCache.as_dict` so benchmark and daemon
reports can show where decomposition time actually went.

One cache may be shared by concurrent threads (the repair daemon hands the
same instance to every ``syrenn`` job): a lock guards both tiers and the
counters, so every lookup is counted exactly once.  ``get_many`` and
``put_many`` take the lock once for a whole pass of lookups or stores.
"""

from __future__ import annotations

import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.utils.serialization import default_cache_dir, load_arrays, save_arrays

__all__ = ["CacheKey", "CacheStats", "PartitionCache", "TierStats"]

#: A cache key: (network fingerprint, geometry digest).
CacheKey = tuple[str, str]


def _record_requests(tier: str, result: str, count: int) -> None:
    """Mirror ``count`` tier lookups into the metrics registry (obs-enabled only)."""
    if count:
        obs.counter(
            "repro_cache_requests_total",
            "Partition-cache lookups by tier and outcome.",
            labels=("tier", "result"),
        ).inc(count, tier=tier, result=result)


def _record_puts(tier: str, count: int) -> None:
    if count:
        obs.counter(
            "repro_cache_puts_total",
            "Partition-cache payload stores by tier.",
            labels=("tier",),
        ).inc(count, tier=tier)


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
        return self.get_many([key])[0]

    def get_many(self, keys: list[CacheKey], decode: Callable | None = None) -> list:
        """Look up every key under one lock, counting each as :meth:`get` does.

        With ``decode``, each payload found comes back as ``decode(payload)``,
        and a payload it cannot decode (``None``) counts as a miss: it is
        dropped from the memory tier, and its disk file deleted so the next
        :meth:`put` replaces it.
        """
        with self._lock:
            memory, values = self._memory, []
            memory_hits = disk_hits = 0
            for key in keys:
                payload = memory.get(key)
                if payload is not None:
                    value = payload if decode is None else decode(payload)
                    if value is not None:
                        memory.move_to_end(key)
                        memory_hits += 1
                        values.append(value)
                        continue
                    del memory[key]
                value = self._get_disk(key, decode) if self.disk else None
                disk_hits += value is not None
                values.append(value)
            memory_misses = len(values) - memory_hits
            self.stats.memory.hits += memory_hits
            self.stats.memory.misses += memory_misses
            self.stats.disk.hits += disk_hits
            self.stats.disk.misses += memory_misses - disk_hits
            if obs.enabled():
                _record_requests("memory", "hit", memory_hits)
                _record_requests("memory", "miss", memory_misses)
                _record_requests("disk", "hit", disk_hits)
                _record_requests("disk", "miss", memory_misses - disk_hits)
            return values

    def _get_disk(self, key: CacheKey, decode: Callable | None):
        """A disk-tier lookup, promoting a hit into the memory tier."""
        payload = self._load_disk(key)
        if payload is None:
            return None
        value = payload if decode is None else decode(payload)
        if value is None:
            self._disk_path(key).unlink(missing_ok=True)
        else:
            self._insert_memory(key, payload)
        return value

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
        self.put_many([(key, payload)])

    def put_many(self, items: list[tuple[CacheKey, dict[str, np.ndarray]]]) -> None:
        """:meth:`put` every ``(key, payload)`` under one lock."""
        with self._lock:
            disk_puts = 0
            for key, payload in items:
                self._insert_memory(key, payload)
                if self.disk and not self._disk_path(key).exists():
                    self._write_disk(key, payload)
                    disk_puts += 1
            self.stats.memory.puts += len(items)
            self.stats.disk.puts += disk_puts
            if obs.enabled():
                _record_puts("memory", len(items))
                _record_puts("disk", disk_puts)

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
        memory = self._memory
        memory[key] = payload
        memory.move_to_end(key)
        if len(memory) <= self.max_entries:
            return
        evicted = 0
        while len(memory) > self.max_entries:
            memory.popitem(last=False)
            evicted += 1
        self.stats.memory.evictions += evicted
        if obs.enabled():
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
