"""The deduplicating counterexample pool of the CEGIS repair driver.

Every verification round can return counterexamples the pool has already
seen (the exact verifier reports every violating vertex of every linear
region, and vertices are shared between adjacent regions).  The pool keys
each counterexample by its rounded point, rounded activation point, and a
digest of its constraint, so re-adding an old counterexample is a no-op and
the driver can tell "the verifier found something new" from "the verifier is
stuck".

Region counterexamples (:class:`~repro.verify.base.RegionCounterexample`,
produced by the exact verifier in the driver's polytope mode) are keyed by
their *activation pattern* instead: the region's interior point plus its
vertex set and constraint — never the worst-violating vertex or its margin,
both of which move between rounds as the value channel is repaired while the
region itself stays put.  A re-found violating region is therefore always a
duplicate, which is what keeps the driver's stall detection sound.

Key material is normalized before hashing — coerced to contiguous
``float64`` and rounded with ``-0.0`` collapsed onto ``0.0`` — because the
raw bytes of ``-0.0`` differ from ``0.0`` and ``float32`` bytes never match
``float64`` bytes: without normalization, equal counterexamples from (say) a
``float32`` dataset sweep would evade dedup forever and fool the driver into
thinking the verifier keeps finding something new.

**Disk-spill tier.**  With ``max_resident_bytes`` set, the pool keeps only a
bounded suffix of entries in memory: when the resident window exceeds the
budget, the oldest resident run is written to a segment file (the same
per-entry npz layout the checkpoints use) and the in-memory slots are
dropped.  Dedup keys and per-entry metadata (margins, key-point counts)
always stay resident, so :meth:`add`, :meth:`worst_margin` and
``num_key_points`` never touch disk; consumers that need entry *contents*
(:meth:`point_spec`, :meth:`unsatisfied`, :meth:`save`) stream them back in
insertion order through a one-segment read cache.  Million-point pools thus
cost O(keys) RAM, not O(entries).

The pool also persists itself through :mod:`repro.utils.serialization` so an
interrupted driver run (CI timeout, budget exhaustion) resumes with every
counterexample it had already paid verification time for.  Checkpoints are
written atomically (temp file + ``os.replace``), so a concurrent reader or
a mid-save kill can never observe a torn archive.
"""

from __future__ import annotations

import bisect
import hashlib
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.ddnn import POINT_BATCH, DecoupledNetwork
from repro.core.specs import PointRepairSpec
from repro.polytope.hpolytope import HPolytope
from repro.utils.serialization import load_arrays, save_arrays_atomic
from repro.verify.base import (
    ConstraintGroups,
    Counterexample,
    RegionCounterexample,
    constraint_bytes,
)


def _pack_entry(arrays: dict, index: int, counterexample: Counterexample) -> None:
    """Write one counterexample into an npz mapping at slot ``index``.

    Region counterexamples additionally carry their vertex array; the
    presence of ``vertices_i`` in the archive is what marks entry ``i`` as a
    region on load, so checkpoints written before region support load
    unchanged.
    """
    arrays[f"point_{index}"] = counterexample.point
    arrays[f"activation_{index}"] = counterexample.resolved_activation_point()
    arrays[f"constraint_a_{index}"] = counterexample.constraint.a
    arrays[f"constraint_b_{index}"] = counterexample.constraint.b
    arrays[f"meta_{index}"] = np.array(
        [counterexample.margin, float(counterexample.region_index)]
    )
    if isinstance(counterexample, RegionCounterexample):
        arrays[f"vertices_{index}"] = counterexample.vertices


def _unpack_entry(arrays: dict, index: int) -> Counterexample:
    """Invert :func:`_pack_entry` for slot ``index``."""
    margin, region_index = arrays[f"meta_{index}"]
    constraint = HPolytope(
        arrays[f"constraint_a_{index}"], arrays[f"constraint_b_{index}"]
    )
    if f"vertices_{index}" in arrays:
        return RegionCounterexample(
            point=arrays[f"point_{index}"],
            constraint=constraint,
            margin=float(margin),
            region_index=int(region_index),
            activation_point=arrays[f"activation_{index}"],
            vertices=arrays[f"vertices_{index}"],
        )
    return Counterexample(
        point=arrays[f"point_{index}"],
        constraint=constraint,
        margin=float(margin),
        region_index=int(region_index),
        activation_point=arrays[f"activation_{index}"],
    )


def _activation_rows(counterexample: Counterexample, count: int) -> np.ndarray:
    """The activation point once per key point, as ``(count, n)`` rows.

    Contiguous rows rather than a zero-stride broadcast view, which
    ``np.vstack`` copies about three times slower.
    """
    activation = counterexample.resolved_activation_point()[None, :]
    return activation if count == 1 else np.repeat(activation, count, axis=0)


def _entry_nbytes(counterexample: Counterexample) -> int:
    """Approximate resident footprint of one entry's array payloads."""
    nbytes = (
        counterexample.point.nbytes
        + counterexample.resolved_activation_point().nbytes
        + counterexample.constraint.a.nbytes
        + counterexample.constraint.b.nbytes
    )
    if isinstance(counterexample, RegionCounterexample):
        nbytes += counterexample.vertices.nbytes
    return int(nbytes)


class CounterexamplePool:
    """An insertion-ordered, deduplicating set of counterexamples.

    Parameters
    ----------
    decimals:
        Rounding applied to dedup-key material.
    max_resident_bytes:
        ``None`` (default) keeps every entry in memory — the historical
        behavior.  A byte budget enables the disk-spill tier described in
        the module docstring; dedup keys and per-entry metadata always stay
        resident regardless.
    spill_dir:
        Directory for spill segment files.  Defaults to a private temporary
        directory that lives as long as the pool object.
    """

    def __init__(
        self,
        decimals: int = 9,
        max_resident_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        self.decimals = int(decimals)
        if max_resident_bytes is not None:
            max_resident_bytes = int(max_resident_bytes)
            if max_resident_bytes < 1:
                raise ValueError("max_resident_bytes must be positive (or None)")
        self.max_resident_bytes = max_resident_bytes
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_cleanup: weakref.finalize | None = None
        # Entry slots: a spilled entry's slot holds None; its contents live
        # in exactly one segment file.  Metadata lists stay fully resident.
        self._entries: list[Counterexample | None] = []
        self._keys: set[bytes] = set()
        self._margins: list[float] = []
        self._key_counts: list[int] = []
        self._entry_bytes: list[int] = []
        self._resident_bytes = 0
        self._resident_start = 0
        # Spilled runs, in order: (start, stop, path) with stop == next
        # segment's start; _segment_starts mirrors the starts for bisect.
        self._segments: list[tuple[int, int, Path]] = []
        self._segment_starts: list[int] = []
        self._segment_cache: tuple[Path, dict] | None = None
        self.spilled_entries = 0

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def add(self, counterexample: Counterexample) -> bool:
        """Add one counterexample; returns ``True`` if it was new."""
        return self._admit(counterexample, self._key(counterexample))

    def extend(self, counterexamples: list[Counterexample]) -> int:
        """Add many counterexamples; returns how many were new.

        Equivalent to :meth:`add` on each in order (same keys, entries and
        spills), but the key material of plain counterexamples is
        normalized as one stacked array and each constraint's bytes are
        read once.
        """
        counterexamples = list(counterexamples)
        keys = self._keys_of(counterexamples)
        return sum(
            self._admit(counterexample, key)
            for counterexample, key in zip(counterexamples, keys)
        )

    def _admit(self, counterexample: Counterexample, key: bytes) -> bool:
        if key in self._keys:
            return False
        self._keys.add(key)
        self._entries.append(counterexample)
        self._margins.append(float(counterexample.margin))
        self._key_counts.append(int(counterexample.key_points().shape[0]))
        nbytes = _entry_nbytes(counterexample)
        self._entry_bytes.append(nbytes)
        self._resident_bytes += nbytes
        self._maybe_spill()
        return True

    def _normalized(self, array: np.ndarray) -> np.ndarray:
        """Key material for one array: contiguous float64, rounded, no ``-0.0``.

        Rounding can itself produce ``-0.0`` (``np.round(-1e-12, 9)`` does),
        so the ``+ 0.0`` — which maps ``-0.0`` to ``+0.0`` under IEEE-754 —
        is applied *after* rounding, covering both a literal ``-0.0`` input
        and one minted by the rounding step.  Element-wise, so a stack of
        arrays normalizes to the stack of their normalizations.
        """
        rounded = np.round(np.asarray(array, dtype=np.float64), self.decimals)
        return np.ascontiguousarray(rounded + 0.0)

    def _key(self, counterexample: Counterexample) -> bytes:
        digest = hashlib.sha256()
        if isinstance(counterexample, RegionCounterexample):
            # Activation-pattern-aware key: the interior point identifies the
            # linear region (its activation pattern), and the vertex set +
            # constraint pin the geometry and obligation.  The worst vertex
            # and margin are deliberately excluded — they change across
            # repair rounds while the region does not.
            digest.update(b"region:")
            digest.update(self._normalized(counterexample.resolved_activation_point()).tobytes())
            digest.update(self._normalized(counterexample.vertices).tobytes())
        else:
            digest.update(b"point:")
            digest.update(self._normalized(counterexample.point).tobytes())
            digest.update(self._normalized(counterexample.resolved_activation_point()).tobytes())
        digest.update(constraint_bytes(counterexample.constraint))
        return digest.digest()

    def _keys_of(self, counterexamples: list[Counterexample]) -> list[bytes]:
        """:meth:`_key` of every counterexample, batched over plain ones.

        The points of plain counterexamples (and their explicit activation
        points) are normalized as one stacked array each, when they share a
        shape, and each constraint object's bytes are read once.  Region
        counterexamples and ragged batches take :meth:`_key` per entry.
        """
        keys: list[bytes | None] = [None] * len(counterexamples)
        plain = [
            index
            for index, counterexample in enumerate(counterexamples)
            if not isinstance(counterexample, RegionCounterexample)
        ]
        pinned = [
            index for index in plain if counterexamples[index].activation_point is not None
        ]
        shapes = {counterexamples[index].point.shape for index in plain}
        shapes.update(counterexamples[index].activation_point.shape for index in pinned)
        if len(shapes) == 1 and len(next(iter(shapes))) == 1:
            points = self._normalized(np.array([counterexamples[i].point for i in plain]))
            activations = dict(zip(plain, points))
            if pinned:
                stacked = np.array([counterexamples[i].activation_point for i in pinned])
                activations.update(zip(pinned, self._normalized(stacked)))
            # The constraints stay referenced by the batch, so no id is reused.
            material_of: dict[int, bytes] = {}
            for index, point in zip(plain, points):
                constraint = counterexamples[index].constraint
                material = material_of.get(id(constraint))
                if material is None:
                    material = material_of[id(constraint)] = constraint_bytes(constraint)
                keys[index] = hashlib.sha256(
                    b"point:" + point.tobytes() + activations[index].tobytes() + material
                ).digest()
        return [
            self._key(counterexample) if key is None else key
            for counterexample, key in zip(counterexamples, keys)
        ]

    # ------------------------------------------------------------------
    # Spill tier
    # ------------------------------------------------------------------
    def _spill_path(self, segment_index: int) -> Path:
        if self._spill_dir is None:
            # A plain mkdtemp + weakref finalizer (not TemporaryDirectory,
            # whose implicit-cleanup finalizer raises a ResourceWarning when
            # the pool is simply garbage collected).
            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-pool-"))
            self._spill_cleanup = weakref.finalize(
                self, shutil.rmtree, str(self._spill_dir), ignore_errors=True
            )
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir / f"segment_{segment_index:05d}.npz"

    def _maybe_spill(self) -> None:
        """Spill the oldest resident run if the window exceeds its budget.

        The run is sized to bring residency down to half the budget (so
        spills amortize instead of triggering per-add), but always leaves
        the newest entry resident — the driver touches it immediately.
        """
        if self.max_resident_bytes is None:
            return
        if self._resident_bytes <= self.max_resident_bytes:
            return
        start = self._resident_start
        stop = start
        freed = 0
        target = self._resident_bytes - self.max_resident_bytes // 2
        while stop < len(self._entries) - 1 and freed < target:
            freed += self._entry_bytes[stop]
            stop += 1
        if stop == start:
            return
        path = self._spill_path(len(self._segments))
        arrays: dict[str, np.ndarray] = {"start": np.array([start]), "count": np.array([stop - start])}
        for slot, index in enumerate(range(start, stop)):
            _pack_entry(arrays, slot, self._entries[index])
        save_arrays_atomic(path, arrays)
        for index in range(start, stop):
            self._entries[index] = None
        self._segments.append((start, stop, path))
        self._segment_starts.append(start)
        self._resident_start = stop
        self._resident_bytes -= freed
        self.spilled_entries += stop - start
        if obs.enabled():
            obs.counter(
                "repro_pool_spilled_entries_total",
                "Counterexample-pool entries spilled to disk segments.",
            ).inc(stop - start)

    def _load_segment(self, segment: tuple[int, int, Path]) -> dict:
        if self._segment_cache is not None and self._segment_cache[0] == segment[2]:
            return self._segment_cache[1]
        arrays = load_arrays(segment[2])
        self._segment_cache = (segment[2], arrays)
        return arrays

    def entry(self, index: int) -> Counterexample:
        """The counterexample at ``index``, loading its spill segment if needed."""
        resident = self._entries[index]
        if resident is not None:
            return resident
        slot = bisect.bisect_right(self._segment_starts, index) - 1
        segment = self._segments[slot]
        arrays = self._load_segment(segment)
        return _unpack_entry(arrays, index - segment[0])

    def iter_entries(self, start: int = 0):
        """Iterate entries ``[start:]`` in insertion order, spill-aware.

        Sequential access loads each spill segment at most once thanks to
        the one-segment read cache.
        """
        for index in range(start, len(self._entries)):
            yield self.entry(index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def counterexamples(self) -> list[Counterexample]:
        """The pooled counterexamples, in insertion order (materializes spills)."""
        return list(self.iter_entries())

    @property
    def num_key_points(self) -> int:
        """Total repair points the pool expands to (regions count all vertices)."""
        return sum(self._key_counts)

    @property
    def worst_margin(self) -> float:
        """The largest violation margin in the pool (-inf when empty)."""
        return max(self._margins, default=float("-inf"))

    @property
    def resident_bytes(self) -> int:
        """Approximate bytes of entry payloads currently held in memory."""
        return self._resident_bytes

    # ------------------------------------------------------------------
    # Repair interface
    # ------------------------------------------------------------------
    def point_spec(self, margin: float = 0.0, start: int = 0) -> PointRepairSpec:
        """The pool (from entry index ``start``) as a pointwise repair spec.

        Point counterexamples contribute one repair point each; region
        counterexamples expand into one repair point per region vertex, every
        one pinned to the region's interior point — exactly the rows
        :func:`~repro.core.polytope_repair.region_key_points` gives Algorithm
        2's ``reduce_to_key_points`` for those regions, in the same order.
        The points are stacked from one block per entry.

        ``margin`` tightens every constraint (``b → b - margin``) so the
        repaired outputs land strictly inside their polytopes and survive
        re-verification under a stricter-than-LP-solver tolerance; each
        distinct constraint is tightened once, and its points share the
        tightened copy.
        ``start`` slices off an already-encoded prefix of pool *entries*: the
        repair driver appends each round only the counterexamples
        pooled since the previous round (the pool is insertion-ordered and
        entries are never removed, so a prefix count identifies them
        exactly).
        """
        if not 0 <= start <= len(self._entries):
            raise ValueError(
                f"start index {start} outside pool of {len(self._entries)}"
            )
        if start == len(self._entries):
            raise ValueError("cannot build a repair spec from an empty pool slice")
        groups = ConstraintGroups()
        tightened: list[HPolytope] = []
        points: list[np.ndarray] = []
        activation_points: list[np.ndarray] = []
        constraints: list[HPolytope] = []
        for counterexample in self.iter_entries(start):
            constraint = counterexample.constraint
            group = groups.group(constraint)
            if group == len(tightened):
                tightened.append(HPolytope(constraint.a, constraint.b - margin))
            key_points = counterexample.key_points()
            points.append(key_points)
            activation_points.append(_activation_rows(counterexample, key_points.shape[0]))
            constraints.extend([tightened[group]] * key_points.shape[0])
        return PointRepairSpec(
            points=np.vstack(points),
            constraints=constraints,
            activation_points=np.vstack(activation_points),
        )

    def unsatisfied(
        self, network, tolerance: float = 1e-6, chunk_points: int = POINT_BATCH
    ) -> list[int]:
        """Indices of pooled counterexamples ``network`` still violates.

        A region counterexample counts as unsatisfied if *any* of its key
        points violates its constraint.  This is the driver's differential
        check: after a feasible repair, every pooled counterexample must be
        satisfied (the LP guarantees it), so a non-empty result flags a
        numerical or encoding bug.

        Key points are evaluated in batches of exactly ``chunk_points`` rows
        (the last one shorter; one stacked forward pass each) rather than
        one ``compute`` call per point, and each batch's margins take one
        :meth:`~repro.polytope.hpolytope.HPolytope.violation_batch` per
        distinct constraint, which is what keeps this check cheap on
        10^5-row pools.  Entries join a batch as whole key-point blocks, and
        a constraint object already seen finds its group by identity.
        """
        decoupled = isinstance(network, DecoupledNetwork)
        # Pending key-point blocks, one per entry (or a carried remainder),
        # with their activation rows (read by decoupled networks only),
        # owning entries and constraint groups.
        blocks: list[np.ndarray] = []
        activation_blocks: list[np.ndarray] = []
        owners: list[int] = []
        groups: list[int] = []
        constraint_groups = ConstraintGroups()
        unsatisfied_indices: set[int] = set()

        def flush(final: bool) -> None:
            if not owners:
                return
            stacked = np.vstack(blocks)
            activations = np.vstack(activation_blocks) if decoupled else None
            owner_rows = np.array(owners)
            group_rows = np.array(groups)
            stop = owner_rows.size if final else owner_rows.size - owner_rows.size % chunk_points
            for start in range(0, stop, chunk_points):
                rows = slice(start, min(start + chunk_points, stop))
                if decoupled:
                    outputs = np.atleast_2d(network.compute(stacked[rows], activations[rows]))
                else:
                    outputs = np.atleast_2d(network.compute(stacked[rows]))
                chunk_owners, chunk_groups = owner_rows[rows], group_rows[rows]
                for group in np.unique(chunk_groups).tolist():
                    members = np.flatnonzero(chunk_groups == group)
                    margins = constraint_groups.constraints[group].violation_batch(
                        outputs[members]
                    )
                    unsatisfied_indices.update(chunk_owners[members[margins > tolerance]].tolist())
            blocks[:] = [stacked[stop:]]
            if decoupled:
                activation_blocks[:] = [activations[stop:]]
            owners[:] = owners[stop:]
            groups[:] = groups[stop:]

        for index, counterexample in enumerate(self.iter_entries()):
            group = constraint_groups.group(counterexample.constraint)
            key_points = counterexample.key_points()
            count = key_points.shape[0]
            blocks.append(key_points)
            if decoupled:
                activation_blocks.append(_activation_rows(counterexample, count))
            owners.extend([index] * count)
            groups.extend([group] * count)
            if len(owners) >= chunk_points:
                flush(final=False)
        flush(final=True)
        return sorted(unsatisfied_indices)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Checkpoint the pool to an ``.npz`` file, atomically.

        The archive is written to a temp file and moved into place with
        ``os.replace``, so a reader racing the save (or a kill between
        write and rename) observes either the previous complete checkpoint
        or the new one — never a torn file.  Spilled entries are streamed
        back from their segments into the archive.
        """
        arrays: dict[str, np.ndarray] = {
            "decimals": np.array([self.decimals]),
            "count": np.array([len(self._entries)]),
        }
        for index, counterexample in enumerate(self.iter_entries()):
            _pack_entry(arrays, index, counterexample)
        save_arrays_atomic(Path(path), arrays)

    @classmethod
    def load(
        cls,
        path: str | Path,
        max_resident_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> "CounterexamplePool":
        """Restore a pool checkpointed by :meth:`save`.

        ``max_resident_bytes``/``spill_dir`` configure the restored pool's
        spill tier; entries past the budget spill during the reload itself,
        so resuming a million-point checkpoint never holds it fully in RAM.
        """
        arrays = load_arrays(Path(path))
        pool = cls(
            decimals=int(arrays["decimals"][0]),
            max_resident_bytes=max_resident_bytes,
            spill_dir=spill_dir,
        )
        for index in range(int(arrays["count"][0])):
            pool.add(_unpack_entry(arrays, index))
        return pool
