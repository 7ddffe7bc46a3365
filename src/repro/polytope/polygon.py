"""Planar convex polygons with per-vertex attributes and half-plane clipping.

The 2-D SyReNN decomposition keeps, for every polygon of the current
partition, its vertices both as points of the (2-D) input plane and as the
corresponding intermediate values at the current network layer.  Splitting a
polygon by the zero set of an affine function only requires the function's
values at the vertices, and linear interpolation of *all* vertex attributes
at the crossing points.  :class:`VertexPolygon` packages that bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError

#: Vertices whose clip function magnitude is below this are treated as lying
#: exactly on the clipping line.
CLIP_TOLERANCE = 1e-9

#: Polygons with fewer than three vertices or (relative) area below this are
#: discarded by the splitting routines.
DEGENERATE_AREA = 1e-12


def polygon_area(points: np.ndarray) -> float:
    """Unsigned area of a planar polygon given as an ordered vertex list."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError("polygon_area expects an (k, 2) array")
    if points.shape[0] < 3:
        return 0.0
    x, y = points[:, 0], points[:, 1]
    rolled_x, rolled_y = np.roll(x, -1), np.roll(y, -1)
    return float(abs(np.dot(x, rolled_y) - np.dot(rolled_x, y)) / 2.0)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull of a set of 2-D points (monotone chain)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError("convex_hull expects an (k, 2) array")
    unique = np.unique(points, axis=0)
    if unique.shape[0] <= 2:
        return unique
    ordered = unique[np.lexsort((unique[:, 1], unique[:, 0]))]

    def half_hull(candidates):
        hull: list[np.ndarray] = []
        for point in candidates:
            while len(hull) >= 2:
                # 2-D cross product written out (np.cross dropped 2-D support).
                first, second = hull[-1] - hull[-2], point - hull[-2]
                cross = first[0] * second[1] - first[1] * second[0]
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(point)
        return hull

    lower = half_hull(ordered)
    upper = half_hull(ordered[::-1])
    return np.array(lower[:-1] + upper[:-1])


def clip_by_function(vertices: np.ndarray, function_values: np.ndarray, keep_positive: bool) -> np.ndarray:
    """Clip an ordered polygon to one side of an affine function's zero set.

    ``vertices`` is an ``(k, d)`` array of vertex attribute rows (the first
    two columns need not be the plane coordinates — clipping only uses the
    affine function values).  ``function_values`` gives the affine function
    at each vertex.  Returns the ordered vertices of the sub-polygon where
    the function is ``>= 0`` (``keep_positive``) or ``<= 0``.

    The edge walk is fully vectorized: each edge ``i`` contributes its start
    vertex when that vertex is inside, then the crossing point when the edge
    crosses the zero set, and the per-slot selection preserves exactly that
    emission order.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    values = np.asarray(function_values, dtype=np.float64)
    if vertices.shape[0] != values.shape[0]:
        raise ShapeError("one function value per vertex is required")
    if not keep_positive:
        values = -values

    count = vertices.shape[0]
    if count == 0:
        return np.zeros((0, vertices.shape[1]))
    next_vertices = np.roll(vertices, -1, axis=0)
    next_values = np.roll(values, -1)
    inside = values >= -CLIP_TOLERANCE
    crosses = ((values > CLIP_TOLERANCE) & (next_values < -CLIP_TOLERANCE)) | (
        (values < -CLIP_TOLERANCE) & (next_values > CLIP_TOLERANCE)
    )
    denominator = np.where(crosses, values - next_values, 1.0)
    ratios = values / denominator
    crossings = vertices + ratios[:, None] * (next_vertices - vertices)
    # Slot layout per edge: [start vertex, crossing point]; boolean selection
    # over the stacked (count, 2, d) array walks the slots in edge order.
    slots = np.stack([inside, crosses], axis=1)
    candidates = np.stack([vertices, crossings], axis=1)
    kept = candidates[slots]
    if kept.shape[0] == 0:
        return np.zeros((0, vertices.shape[1]))
    return kept


def fan_wedges(vertices: np.ndarray, num_wedges: int) -> list[np.ndarray]:
    """Subdivide a convex polygon into contiguous convex wedges sharing vertex 0.

    The polygon's fan triangulation has ``k - 2`` triangles; grouping runs of
    consecutive triangles yields at most ``k - 2`` convex sub-polygons
    ``[v0, v_a, ..., v_b]`` whose union is the original polygon and whose
    interiors are disjoint.  This is the geometry-sharding primitive of the
    execution engine: each wedge can be decomposed independently and the
    results concatenated.  The cut indices are a pure function of
    ``(k, num_wedges)``, so the subdivision is deterministic.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[0] < 3:
        raise ShapeError("fan_wedges expects a (k >= 3, d) vertex array")
    if num_wedges < 1:
        raise ValueError("num_wedges must be positive")
    count = vertices.shape[0]
    wedges = min(num_wedges, count - 2)
    if wedges == 1:
        return [vertices]
    cuts = np.unique(np.linspace(1, count - 1, wedges + 1).round().astype(int))
    return [
        np.vstack([vertices[:1], vertices[start : stop + 1]])
        for start, stop in zip(cuts[:-1], cuts[1:])
    ]


def split_by_function(vertices: np.ndarray, function_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an ordered polygon into its ``>= 0`` and ``<= 0`` parts."""
    positive = clip_by_function(vertices, function_values, keep_positive=True)
    negative = clip_by_function(vertices, function_values, keep_positive=False)
    return positive, negative


class VertexPolygon:
    """An ordered convex polygon whose vertices carry attribute vectors.

    Attributes are stored as an ``(k, 2 + d)`` array: the first two columns
    are the polygon's own planar coordinates (used for area/degeneracy
    checks) and the remaining ``d`` columns are arbitrary attributes (for
    SyReNN: the input-space point followed by the current-layer values).
    """

    def __init__(self, plane_points: np.ndarray, attributes: np.ndarray) -> None:
        plane_points = np.asarray(plane_points, dtype=np.float64)
        attributes = np.asarray(attributes, dtype=np.float64)
        if plane_points.ndim != 2 or plane_points.shape[1] != 2:
            raise ShapeError("plane_points must be (k, 2)")
        if attributes.ndim != 2 or attributes.shape[0] != plane_points.shape[0]:
            raise ShapeError("attributes must have one row per vertex")
        self.plane_points = plane_points
        self.attributes = attributes

    @property
    def num_vertices(self) -> int:
        return self.plane_points.shape[0]

    @property
    def area(self) -> float:
        """Area in the polygon's own planar coordinates."""
        return polygon_area(self.plane_points)

    def is_degenerate(self, reference_area: float = 1.0) -> bool:
        """True if the polygon is too small to represent a linear region."""
        if self.num_vertices < 3:
            return True
        return self.area <= DEGENERATE_AREA * max(reference_area, 1.0)

    def centroid_attributes(self) -> np.ndarray:
        """Mean of the vertex attributes (an interior point for convex sets)."""
        return self.attributes.mean(axis=0)

    def centroid_plane_point(self) -> np.ndarray:
        """Mean of the planar coordinates."""
        return self.plane_points.mean(axis=0)

    def split(self, function_values: np.ndarray) -> tuple["VertexPolygon | None", "VertexPolygon | None"]:
        """Split by the zero set of an affine function given at the vertices."""
        combined = np.hstack([self.plane_points, self.attributes])
        positive, negative = split_by_function(combined, function_values)

        def build(rows: np.ndarray) -> "VertexPolygon | None":
            if rows.shape[0] < 3:
                return None
            polygon = VertexPolygon(rows[:, :2], rows[:, 2:])
            if polygon.is_degenerate(self.area):
                return None
            return polygon

        return build(positive), build(negative)

    def __repr__(self) -> str:
        return f"VertexPolygon(vertices={self.num_vertices}, area={self.area:.4g})"
