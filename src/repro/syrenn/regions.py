"""The linear-region datatype and the geometry digest of cache keys.

The exact verifier (``repro.verify.exact``) consumes SyReNN decompositions
as lists of :class:`LinearRegion` and keys its
:class:`~repro.syrenn.cache.PartitionCache` by :func:`geometry_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.polytope.segment import LineSegment


@dataclass
class LinearRegion:
    """One linear region of a specification region: its vertices and interior.

    This is the unit of exact verification — the outputs at ``vertices``
    bound the constraint margin over the whole region, and ``interior`` pins
    a DDNN's activation pattern to the region.
    """

    vertices: np.ndarray
    interior: np.ndarray


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
