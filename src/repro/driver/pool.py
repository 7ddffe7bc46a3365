"""The deduplicating counterexample pool of the CEGIS repair driver.

Every verification round can return counterexamples the pool has already
seen (the exact verifier reports every violating vertex of every linear
region, and vertices are shared between adjacent regions).  The pool keys
each counterexample by its rounded point, rounded activation point, and the
bytes of its constraint, so re-adding an old counterexample is a no-op and
the driver can tell "the verifier found something new" from "the verifier is
stuck".

**Key material.**  A point counterexample's key is the SHA-256 of its
normalized point and its constraint's bytes, prefixed ``point:``, when its
activation point normalizes to the point itself (no activation point, or an
explicit one equal to the point, as every entry reloaded from a checkpoint
carries), so the point is hashed once and a reloaded entry still dedups
against an unpinned one.  A counterexample pinned to another activation
point hashes the point, then the activation point, prefixed ``pinned:``.
The two prefixes keep the forms apart, so two counterexamples share a key
exactly when their normalized points, normalized activation points and
constraint bytes are equal.  Region counterexamples
(:class:`~repro.verify.base.RegionCounterexample`, produced by the exact
verifier in the driver's polytope mode) are keyed by their *activation
pattern* instead: the region's interior point plus its vertex set and
constraint, prefixed ``region:`` — never the worst-violating vertex or its
margin, both of which move between rounds as the value channel is repaired
while the region itself stays put.  A re-found violating region is
therefore always a duplicate, which is what keeps the driver's stall
detection sound.

Key material is normalized before hashing — coerced to contiguous
``float64`` and rounded with ``-0.0`` collapsed onto ``0.0`` — because the
raw bytes of ``-0.0`` differ from ``0.0`` and ``float32`` bytes never match
``float64`` bytes: without normalization, equal counterexamples from (say) a
``float32`` dataset sweep would evade dedup forever and fool the driver into
thinking the verifier keeps finding something new.

**Stacked intake.**  A sampling verifier's pointwise pass reports one
:class:`~repro.verify.base.CounterexampleBatch` (stacked points, margins,
region indices and constraint groups).  :meth:`CounterexamplePool.extend`
normalizes its points as one array, hashes each row's bytes in place and
keeps the new rows as one batch — the verifier's own batch when every row
is new — so no object is built per point.  The kept rows are a row view
only of the spec's point stack, which the spec keeps alive anyway; new
rows of any other batch are gathered, so a pooled batch never holds more
rows than it counts.  :meth:`~CounterexamplePool.point_spec` and
:meth:`~CounterexamplePool.unsatisfied` read pooled batches as row views
of those arrays, so the repair encoder and the pool check present the
frozen-prefix cache the same arrays.  Entries of a list
(:meth:`~CounterexamplePool.add`, capped intake, checkpoint reloads, the
exact verifier's region lists) are keyed one by one and kept as objects,
stacked when read.

**Disk-spill tier.**  With ``max_resident_bytes`` set, the pool keeps only a
bounded suffix of entries in memory: when the resident window exceeds the
budget, the oldest resident run is written to a segment file (the same
per-entry npz layout the checkpoints use) and the in-memory entries are
dropped; a batch cut by the spill keeps its rest as :meth:`take
<repro.verify.base.CounterexampleBatch.take>` of it would.
Dedup keys and per-entry metadata (margins, key-point counts)
always stay resident, so :meth:`add`, :meth:`worst_margin` and
``num_key_points`` never touch disk; consumers that need entry *contents*
(:meth:`point_spec`, :meth:`unsatisfied`, :meth:`save`) stream them back in
insertion order through a one-segment read cache.  Spills happen exactly
where per-entry :meth:`add` calls would put them, however the entries
arrived.  Million-point pools thus cost O(keys) RAM beyond what the caller
already holds, not O(entries).

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
from collections.abc import Sequence
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
    CounterexampleBatch,
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


def _joined(blocks: list[tuple]) -> tuple:
    """``(points, activations, row_groups, owners)`` blocks stacked part by part.

    One block comes back as it is.  When every block's activations are its
    points array, the stacked activations are the stacked points array.
    """
    if len(blocks) == 1:
        return blocks[0]
    points, activations, row_groups, owners = zip(*blocks)
    points = np.concatenate(points)
    if all(block[1] is block[0] for block in blocks):
        activations = points
    else:
        activations = np.concatenate(activations)
    return points, activations, np.concatenate(row_groups), np.concatenate(owners)


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
        # The resident entries, [_resident_start, len), as consecutive runs:
        # a list of counterexample objects, or a CounterexampleBatch whose
        # every row is an entry.  A spilled entry lives in exactly one
        # segment file.  Metadata lists stay fully resident.
        self._runs: list[list[Counterexample] | CounterexampleBatch] = []
        self._run_starts: list[int] = []
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

    def extend(self, counterexamples: Sequence[Counterexample] | CounterexampleBatch) -> int:
        """Add many counterexamples; returns how many were new.

        Equivalent to :meth:`add` on each in order (same entries, keys and
        spills).  A :class:`~repro.verify.base.CounterexampleBatch` is keyed
        in one stacked pass and its new rows join the pool as one batch
        (the batch itself when every row is new), with no object per
        point.
        """
        if isinstance(counterexamples, CounterexampleBatch):
            return self._extend_batch(counterexamples)
        return sum(self.add(counterexample) for counterexample in counterexamples)

    def _admit(self, counterexample: Counterexample, key: bytes) -> bool:
        if key in self._keys:
            return False
        self._keys.add(key)
        if self._runs and isinstance(self._runs[-1], list):
            self._runs[-1].append(counterexample)
        else:
            self._run_starts.append(len(self))
            self._runs.append([counterexample])
        self._record(
            [float(counterexample.margin)],
            [int(counterexample.key_points().shape[0])],
            [_entry_nbytes(counterexample)],
        )
        return True

    def _extend_batch(self, batch: CounterexampleBatch) -> int:
        rows = []
        for row, key in enumerate(self._batch_keys(batch)):
            if key not in self._keys:
                self._keys.add(key)
                rows.append(row)
        if not rows:
            return 0
        admitted = batch.take(rows)
        self._run_starts.append(len(self))
        self._runs.append(admitted)
        # Each entry's point and (resolved) activation point, and its
        # constraint, as _entry_nbytes counts them.
        constraint_nbytes = np.array(
            [constraint.a.nbytes + constraint.b.nbytes for constraint in admitted.constraints]
        )
        self._record(
            admitted.margins.tolist(),
            [1] * len(rows),
            (2 * admitted.points[0].nbytes + constraint_nbytes[admitted.groups]).tolist(),
        )
        return len(rows)

    def _record(self, margins: list[float], key_counts: list[int], entry_bytes: list[int]) -> None:
        """Append new entries' metadata, spilling as per-entry admission would."""
        first = len(self._entry_bytes)
        self._margins.extend(margins)
        self._key_counts.extend(key_counts)
        self._entry_bytes.extend(entry_bytes)
        if self.max_resident_bytes is None:
            self._resident_bytes += sum(entry_bytes)
            return
        for length, nbytes in enumerate(entry_bytes, first + 1):
            self._resident_bytes += nbytes
            self._maybe_spill(length)

    def _normalized(self, array: np.ndarray) -> np.ndarray:
        """Key material for one array: contiguous float64, rounded, no ``-0.0``.

        Rounding can itself produce ``-0.0`` (``np.round(-1e-12, 9)`` does),
        so the ``+ 0.0`` — which maps ``-0.0`` to ``+0.0`` under IEEE-754 —
        is applied *after* rounding, covering both a literal ``-0.0`` input
        and one minted by the rounding step.  Element-wise, so a stack of
        arrays normalizes to the stack of their normalizations.
        """
        rounded = np.ascontiguousarray(np.round(np.asarray(array, dtype=np.float64), self.decimals))
        rounded += 0.0
        return rounded

    def _key(self, counterexample: Counterexample) -> bytes:
        if isinstance(counterexample, RegionCounterexample):
            # Activation-pattern-aware key: the interior point identifies the
            # linear region (its activation pattern), and the vertex set +
            # constraint pin the geometry and obligation.  The worst vertex
            # and margin are deliberately excluded — they change across
            # repair rounds while the region does not.
            digest = hashlib.sha256(b"region:")
            digest.update(self._normalized(counterexample.resolved_activation_point()).tobytes())
            digest.update(self._normalized(counterexample.vertices).tobytes())
            digest.update(constraint_bytes(counterexample.constraint))
            return digest.digest()
        point = self._normalized(counterexample.point).tobytes()
        material = constraint_bytes(counterexample.constraint)
        if counterexample.activation_point is not None:
            activation = self._normalized(counterexample.activation_point).tobytes()
            if activation != point:
                return hashlib.sha256(b"pinned:" + point + activation + material).digest()
        return hashlib.sha256(b"point:" + point + material).digest()

    def _batch_keys(self, batch: CounterexampleBatch) -> list[bytes]:
        """:meth:`_key` of every row of ``batch``, in one stacked pass.

        The points (and activation points) are normalized as one array each,
        every distinct constraint's bytes are read once, and a row's point
        is hashed once when its activation point normalizes to the same
        bytes.
        """
        materials = [constraint_bytes(constraint) for constraint in batch.constraints]
        points = self._normalized(batch.points)
        width = points.shape[1] * points.itemsize
        point_bytes = memoryview(points).cast("B")
        if batch.activation_points is None:
            pinned = [False] * points.shape[0]
        else:
            activations = self._normalized(batch.activation_points)
            pinned = (activations.view(np.uint64) != points.view(np.uint64)).any(axis=1).tolist()
            activation_bytes = memoryview(activations).cast("B")
        keys = []
        for row, (is_pinned, group) in enumerate(zip(pinned, batch.groups.tolist())):
            start = row * width
            if is_pinned:
                digest = hashlib.sha256(b"pinned:")
                digest.update(point_bytes[start : start + width])
                digest.update(activation_bytes[start : start + width])
            else:
                digest = hashlib.sha256(b"point:")
                digest.update(point_bytes[start : start + width])
            digest.update(materials[group])
            keys.append(digest.digest())
        return keys

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

    def _maybe_spill(self, length: int) -> None:
        """Spill the oldest resident run if the window exceeds its budget.

        ``length`` is the number of entries admitted so far (a batch's
        entries are accounted one at a time, as :meth:`add` would).  The
        run is sized to bring residency down to half the budget (so spills
        amortize instead of triggering per-add), but always leaves the
        newest entry resident — the driver touches it immediately.
        """
        if self._resident_bytes <= self.max_resident_bytes:
            return
        start = self._resident_start
        stop = start
        freed = 0
        target = self._resident_bytes - self.max_resident_bytes // 2
        while stop < length - 1 and freed < target:
            freed += self._entry_bytes[stop]
            stop += 1
        if stop == start:
            return
        path = self._spill_path(len(self._segments))
        arrays: dict[str, np.ndarray] = {"start": np.array([start]), "count": np.array([stop - start])}
        for slot, index in enumerate(range(start, stop)):
            _pack_entry(arrays, slot, self.entry(index))
        save_arrays_atomic(path, arrays)
        self._drop_resident(stop)
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

    def _drop_resident(self, stop: int) -> None:
        """Release the resident entries before ``stop`` (just spilled).

        A batch cut by ``stop`` keeps its rest as a :meth:`take
        <repro.verify.base.CounterexampleBatch.take>`: a gather, unless it
        views the spec's point stack, so the spilled rows are freed.
        """
        while self._runs and self._run_starts[0] < stop:
            run, start = self._runs[0], self._run_starts[0]
            if start + len(run) > stop:
                self._runs[0] = run[stop - start :]
                self._run_starts[0] = stop
                return
            del self._runs[0], self._run_starts[0]

    def _load_segment(self, segment: tuple[int, int, Path]) -> dict:
        if self._segment_cache is not None and self._segment_cache[0] == segment[2]:
            return self._segment_cache[1]
        arrays = load_arrays(segment[2])
        self._segment_cache = (segment[2], arrays)
        return arrays

    def entry(self, index: int) -> Counterexample:
        """The counterexample at ``index``, loading its spill segment if needed.

        An entry of a pooled batch comes back as a new
        :class:`~repro.verify.base.Counterexample` view of its row.
        """
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"pool index {index} out of range")
        if index >= self._resident_start:
            slot = bisect.bisect_right(self._run_starts, index) - 1
            return self._runs[slot][index - self._run_starts[slot]]
        slot = bisect.bisect_right(self._segment_starts, index) - 1
        segment = self._segments[slot]
        arrays = self._load_segment(segment)
        return _unpack_entry(arrays, index - segment[0])

    def iter_entries(self, start: int = 0):
        """Iterate entries ``[start:]`` in insertion order, spill-aware.

        Sequential access loads each spill segment at most once thanks to
        the one-segment read cache.
        """
        for index in range(start, len(self)):
            yield self.entry(index)

    def _blocks(self, start: int, groups: ConstraintGroups):
        """Entries ``[start:]`` as stacked row blocks, in insertion order.

        Yields ``(points, activations, row_groups, owners)``: each entry's
        key points with its activation point once per key point, the
        constraint group of every row in ``groups`` (by bytes) and the pool
        index of its entry.  A pooled batch yields views of its own arrays
        (the activations are the points array itself when unpinned); object
        runs and spill segments yield one stack per ``POINT_BATCH`` entries,
        so reading them holds about one batch of copies at a time.
        """
        index = start
        while index < len(self):
            if index < self._resident_start:
                slot = bisect.bisect_right(self._segment_starts, index) - 1
                stop = min(self._segments[slot][1], index + POINT_BATCH)
                entries = [self.entry(position) for position in range(index, stop)]
            else:
                slot = bisect.bisect_right(self._run_starts, index) - 1
                run, run_start = self._runs[slot], self._run_starts[slot]
                stop = run_start + len(run)
                if isinstance(run, CounterexampleBatch):
                    part = run[index - run_start :]
                    local = np.zeros(len(part.constraints), dtype=np.intp)
                    for group in np.unique(part.groups).tolist():
                        local[group] = groups.group(part.constraints[group])
                    yield (
                        part.points,
                        part.resolved_activation_points,
                        local[part.groups],
                        np.arange(index, stop),
                    )
                    index = stop
                    continue
                stop = min(stop, index + POINT_BATCH)
                entries = run[index - run_start : stop - run_start]
            key_points = [entry.key_points() for entry in entries]
            counts = [rows.shape[0] for rows in key_points]
            yield (
                np.vstack(key_points),
                np.vstack(
                    [_activation_rows(entry, count) for entry, count in zip(entries, counts)]
                ),
                np.repeat([groups.group(entry.constraint) for entry in entries], counts),
                np.repeat(np.arange(index, stop), counts),
            )
            index = stop

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._margins)

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
        The points are one stack: a slice that is one pooled batch hands
        over (views of) the verifier's own arrays, so the encoder presents
        the frozen-prefix cache the very batches the verifier did.

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
        if not 0 <= start <= len(self):
            raise ValueError(f"start index {start} outside pool of {len(self)}")
        if start == len(self):
            raise ValueError("cannot build a repair spec from an empty pool slice")
        groups = ConstraintGroups()
        points, activations, row_groups, _ = _joined(list(self._blocks(start, groups)))
        tightened = [
            HPolytope(constraint.a, constraint.b - margin) for constraint in groups.constraints
        ]
        return PointRepairSpec(
            points=points,
            constraints=list(map(tightened.__getitem__, row_groups.tolist())),
            activation_points=activations,
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
        10^5-row pools.  A batch that lies inside one pooled
        counterexample batch is a view of the verifier's arrays, the same
        rows :meth:`point_spec` hands the encoder.
        """
        decoupled = isinstance(network, DecoupledNetwork)
        groups = ConstraintGroups()
        unsatisfied_indices: set[int] = set()

        def check(points, activations, row_groups, owners) -> None:
            if decoupled:
                outputs = np.atleast_2d(network.compute(points, activations))
            else:
                outputs = np.atleast_2d(network.compute(points))
            for group in np.unique(row_groups).tolist():
                members = np.flatnonzero(row_groups == group)
                margins = groups.constraints[group].violation_batch(outputs[members])
                unsatisfied_indices.update(owners[members[margins > tolerance]].tolist())

        # Rows carried over from the previous blocks, fewer than chunk_points.
        carried: list[tuple] = []
        carried_rows = 0
        for block in self._blocks(0, groups):
            rows, position = block[0].shape[0], 0
            if carried_rows:
                position = min(chunk_points - carried_rows, rows)
                carried.append(tuple(part[:position] for part in block))
                carried_rows += position
                if carried_rows < chunk_points:
                    continue
                check(*_joined(carried))
                carried, carried_rows = [], 0
            while rows - position >= chunk_points:
                check(*(part[position : position + chunk_points] for part in block))
                position += chunk_points
            if position < rows:
                carried.append(tuple(part[position:] for part in block))
                carried_rows = rows - position
        if carried_rows:
            check(*_joined(carried))
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
            "count": np.array([len(self)]),
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
