"""Line segments in the input space of a network.

A :class:`LineSegment` is the 1-D convex polytope used by the paper's Task 2
(the line from a clean MNIST image to its fog-corrupted counterpart).  Points
on the segment are addressed by a ratio ``t ∈ [0, 1]``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.utils.validation import check_vector


class LineSegment:
    """The segment ``{(1 - t)·start + t·end : t ∈ [0, 1]}``."""

    def __init__(self, start, end) -> None:
        self.start = check_vector(start, "start")
        self.end = check_vector(end, "end", size=self.start.size)

    @property
    def dimension(self) -> int:
        """Dimension of the ambient input space."""
        return self.start.size

    @property
    def direction(self) -> np.ndarray:
        """The (unnormalized) direction vector ``end - start``."""
        return self.end - self.start

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return float(np.linalg.norm(self.direction))

    def point_at(self, t: float) -> np.ndarray:
        """The point at ratio ``t`` (``t`` may lie outside [0, 1])."""
        return (1.0 - t) * self.start + t * self.end

    def points_at(self, ts) -> np.ndarray:
        """Points at an array of ratios; shape ``(len(ts), dimension)``."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.ndim != 1:
            raise ShapeError("ts must be a 1-D array of ratios")
        return (1.0 - ts)[:, None] * self.start[None, :] + ts[:, None] * self.end[None, :]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` uniformly random points on the segment (for baselines)."""
        ts = rng.uniform(0.0, 1.0, size=count)
        return self.points_at(ts)

    def midpoint(self) -> np.ndarray:
        """The point at ``t = 0.5``."""
        return self.point_at(0.5)

    def __repr__(self) -> str:
        return f"LineSegment(dim={self.dimension}, length={self.length:.4g})"
