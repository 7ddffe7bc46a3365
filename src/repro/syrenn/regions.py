"""Stacked linear regions of a specification, and the geometry digest of cache keys.

Both consumers of SyReNN decompositions, the exact verifier
(``repro.verify.exact``) and one-shot Algorithm 2
(``repro.core.polytope_repair``), work on one :class:`RegionBatch`: every
linear region of every specification region, as stacked arrays.  A
specification region's share of it is a :data:`RegionParts` triple, which
is also what the exact verifier's
:class:`~repro.syrenn.cache.PartitionCache` entries (keyed by
:func:`geometry_digest`) hold, encoded by :func:`parts_payload`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.polytope.segment import LineSegment
from repro.syrenn.line import LinePartition

#: Stacked linear regions: vertex rows ``(v, n)``, CSR ``offsets``
#: ``(k + 1,)`` over those rows (linear region ``i`` owns rows
#: ``offsets[i]:offsets[i + 1]``) and one interior point per linear region
#: ``(k, n)``.  Within a linear region the network is affine, so its
#: vertices bound every output margin over it, and its interior point pins
#: a DDNN's activation pattern to it (Appendix B of the paper).  A cache
#: entry holds one specification region's; a :class:`RegionBatch` gathers
#: its regions from such stacks.
RegionParts = tuple[np.ndarray, np.ndarray, np.ndarray]

#: The format tag of a cache payload written by :func:`parts_payload`.
PAYLOAD_FORMAT = "region-parts/1"

_FORMAT_TAG = np.array(PAYLOAD_FORMAT)
_FORMAT_TAG.flags.writeable = False


def line_parts(partition: LinePartition) -> RegionParts:
    """A segment's linear regions: each one's two endpoints and its midpoint.

    The bits of :class:`~repro.syrenn.line.LineRegion`'s ``vertices`` and
    ``interior_point``: :meth:`LineSegment.points_at` is element-wise, so
    stacking every region's ratios changes no value.
    """
    ratios, segment = partition.ratios, partition.segment
    count = ratios.size - 1
    vertices = segment.points_at(np.stack([ratios[:-1], ratios[1:]], axis=1).ravel())
    interiors = segment.points_at(0.5 * (ratios[:-1] + ratios[1:]))
    return vertices, np.arange(0, 2 * count + 1, 2), interiors


def parts_payload(parts: RegionParts) -> dict[str, np.ndarray]:
    """The partition-cache payload of one specification region's parts."""
    vertices, offsets, interiors = parts
    return {"format": _FORMAT_TAG, "vertices": vertices, "offsets": offsets, "interiors": interiors}


def payload_parts(payload: dict[str, np.ndarray]) -> RegionParts | None:
    """The parts a :func:`parts_payload` payload holds; ``None`` for any other payload.

    A payload of another format (or another version of this one) sharing
    the cache is not decodable, and its key counts as a miss.
    """
    tag = payload.get("format")
    if not isinstance(tag, np.ndarray) or tag.shape != () or tag.item() != PAYLOAD_FORMAT:
        return None
    vertices, offsets, interiors = (payload.get(name) for name in ("vertices", "offsets", "interiors"))
    if vertices is None or offsets is None or interiors is None:
        return None
    if (
        vertices.ndim != 2
        or interiors.ndim != 2
        or offsets.ndim != 1
        or offsets.dtype.kind not in "iu"
        or interiors.shape[1] != vertices.shape[1]
        or offsets.size != interiors.shape[0] + 1
        or offsets[0] != 0
        or offsets[-1] != vertices.shape[0]
    ):
        return None
    return vertices, offsets, interiors


def ragged_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts + counts - ends, counts) + np.arange(total)


@dataclass(frozen=True, eq=False)
class RegionBatch:
    """Every linear region of a specification, stacked row-wise.

    Linear region ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of
    ``vertices`` and has the interior point ``interiors[i]``.  Specification
    region ``s`` owns the contiguous linear regions
    ``region_offsets[s]:region_offsets[s + 1]``; ``decomposed[s]`` is false
    for a region the 1-D/2-D substrate cannot decompose (a box varying in
    three or more dimensions), which owns none.  Rows therefore follow
    specification regions, then linear regions, then vertices, in order.

    Immutable; what a report derives from the batch alone (owners, pinned
    activation rows, ``reduceat`` starts, row groups per constraint) is
    computed once and kept, so the value-only passes that re-evaluate one
    batch skip it.
    """

    vertices: np.ndarray
    offsets: np.ndarray
    interiors: np.ndarray
    region_offsets: np.ndarray
    decomposed: np.ndarray
    _groups: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def gather(
        cls, sources: list[RegionParts], picks: list[tuple[int, int, int] | None], dimension: int
    ) -> RegionBatch:
        """Stack the linear regions each specification region picks, in one gather.

        ``sources`` are stacks of linear regions (a cache entry's parts, a
        segment's, a whole :class:`~repro.syrenn.plane.PlaneBatch`'s);
        ``picks[s]`` is ``(source, first, stop)``: specification region
        ``s`` owns that source's linear regions ``first:stop``.  ``None``
        marks a region that was not decomposed.
        """
        region_counts = [source[2].shape[0] for source in sources]
        if len(sources) == 1:
            vertices, offsets, interiors = sources[0]
        elif sources:
            vertices = np.concatenate([source[0] for source in sources])
            interiors = np.concatenate([source[2] for source in sources])
            starts = np.concatenate([source[1][:-1] for source in sources]).astype(np.int64)
            starts += np.repeat(np.cumsum([0] + [source[0].shape[0] for source in sources[:-1]]), region_counts)
            offsets = np.append(starts, vertices.shape[0])
        else:
            vertices = interiors = np.zeros((0, dimension))
            offsets = np.zeros(1, dtype=np.int64)
        decomposed = np.array([pick is not None for pick in picks], dtype=bool)
        chosen = np.array([pick for pick in picks if pick is not None], dtype=np.int64).reshape(-1, 3)
        first = np.cumsum([0] + region_counts[:-1], dtype=np.int64)[chosen[:, 0]] + chosen[:, 1]
        counts = chosen[:, 2] - chosen[:, 1]
        linear = ragged_range(first, counts)
        row_counts = offsets[linear + 1] - offsets[linear]
        per_region = np.zeros(len(picks), dtype=np.int64)
        per_region[decomposed] = counts
        batch = cls(
            vertices=vertices[ragged_range(offsets[linear], row_counts)],
            offsets=np.concatenate([[0], np.cumsum(row_counts)]),
            interiors=interiors[linear],
            region_offsets=np.concatenate([[0], np.cumsum(per_region)]),
            decomposed=decomposed,
        )
        for array in (batch.vertices, batch.offsets, batch.interiors, batch.region_offsets, decomposed):
            array.flags.writeable = False
        return batch

    @property
    def num_rows(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_linear_regions(self) -> int:
        return self.interiors.shape[0]

    @cached_property
    def owner(self) -> np.ndarray:
        """The specification region of every linear region."""
        return np.repeat(np.arange(self.decomposed.size), np.diff(self.region_offsets))

    @cached_property
    def row_region(self) -> np.ndarray:
        """The specification region of every row."""
        return np.repeat(self.owner, np.diff(self.offsets))

    @cached_property
    def activations(self) -> np.ndarray:
        """Every row's activation point: its linear region's interior."""
        return np.repeat(self.interiors, np.diff(self.offsets), axis=0)

    @cached_property
    def region_starts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(regions, first rows)`` of the specification regions that own rows.

        The ``reduceat`` starts of per-region maxima: ``reduceat`` has no
        empty slices (it would return the next row's value), so a region
        without rows is left out.
        """
        rows = self.offsets[self.region_offsets]
        regions = np.flatnonzero(rows[1:] > rows[:-1])
        return regions, rows[regions]

    def grouped_rows(self, keys: tuple) -> list[tuple[int, np.ndarray | slice]]:
        """The rows of the specification regions sharing each distinct key.

        ``keys[s]`` is region ``s``'s key (its constraint's bytes, say).
        One ``(first region, rows)`` per key that owns rows, in first-seen
        order; rows ascend within a group, and a single group holding every
        row is ``slice(None)``.  Kept for the last ``keys``.
        """
        if self._groups.get("keys") != keys:
            numbers: dict = {}
            region_group = np.array([numbers.setdefault(key, len(numbers)) for key in keys], dtype=np.intp)
            regions, _ = self.region_starts
            present, first = np.unique(region_group[regions], return_index=True)
            firsts = regions[first].tolist()
            if len(firsts) == 1:
                groups = [(firsts[0], slice(None))]
            else:
                row_group = region_group[self.row_region]
                groups = [(region, np.flatnonzero(row_group == group)) for group, region in zip(present, firsts)]
            self._groups.clear()
            self._groups.update(keys=keys, groups=groups)
        return self._groups["groups"]


def geometry_digest(region: LineSegment | np.ndarray) -> str:
    """A digest of a region's geometry, for cache keying.

    Keying on the geometry itself (rather than object identity) keeps a
    partition cache correct across garbage-collected specs, in-place spec
    edits, and re-built-but-identical specs — the common case in a repair
    driver, where every round re-verifies the same regions.
    """
    digest = hashlib.sha256()
    if isinstance(region, LineSegment):
        digest.update(b"segment")
        digest.update(region.start.tobytes())
        digest.update(region.end.tobytes())
    else:
        digest.update(b"vertices")
        digest.update(np.ascontiguousarray(region).tobytes())
    return digest.hexdigest()[:24]
