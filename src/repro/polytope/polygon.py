"""Planar polygon helpers: the shoelace area and the convex hull.

The 2-D SyReNN decomposition (:mod:`repro.syrenn.plane`) measures the
pieces it cuts with :func:`polygon_area`; its half-plane clipping works on
the whole batch of pieces at once and lives there.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


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
