"""Output-space polytopes in half-space representation.

Every repair specification in the paper maps a point (or an input polytope)
into an output polytope ``{y : A y ≤ b}``.  :class:`HPolytope` is that
right-hand side, with constructors for the common cases (intervals and
"class i wins" argmax regions).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SpecificationError
from repro.utils.validation import check_matrix, check_vector


class HPolytope:
    """The set ``{y ∈ R^m : A y ≤ b}``."""

    def __init__(self, a, b) -> None:
        self.a = check_matrix(a, "A")
        self.b = check_vector(b, "b", size=self.a.shape[0])

    @property
    def output_dimension(self) -> int:
        """Dimension ``m`` of the ambient output space."""
        return self.a.shape[1]

    @property
    def num_constraints(self) -> int:
        """Number of half-space constraints."""
        return self.a.shape[0]

    def contains(self, point: np.ndarray, tolerance: float = 1e-7) -> bool:
        """Whether ``point`` satisfies every constraint (up to ``tolerance``)."""
        point = check_vector(point, "point", size=self.output_dimension)
        return bool(np.all(self.a @ point <= self.b + tolerance))

    def violation(self, point: np.ndarray) -> float:
        """Largest constraint violation at ``point`` (≤ 0 means satisfied)."""
        point = check_vector(point, "point", size=self.output_dimension)
        return float(np.max(self.a @ point - self.b))

    def contains_batch(self, points: np.ndarray, tolerance: float = 1e-7) -> np.ndarray:
        """Vectorized :meth:`contains`: boolean mask for a ``(k, m)`` batch.

        The verification subsystem checks thousands of sampled outputs per
        region; one matmul over the batch replaces the per-point Python loop.
        """
        points = check_matrix(points, "points", cols=self.output_dimension)
        return np.all(points @ self.a.T <= self.b + tolerance, axis=1)

    def violation_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`violation`: per-point margins for a ``(k, m)`` batch."""
        points = check_matrix(points, "points", cols=self.output_dimension)
        return np.max(points @ self.a.T - self.b, axis=1)

    # ------------------------------------------------------------------
    # Constructors for the common specification shapes
    # ------------------------------------------------------------------
    @classmethod
    def from_interval(cls, dimension: int, index: int, lower: float, upper: float) -> "HPolytope":
        """``lower ≤ y[index] ≤ upper`` inside an m-dimensional output space."""
        if not 0 <= index < dimension:
            raise SpecificationError(f"index {index} out of range for dimension {dimension}")
        if lower > upper:
            raise SpecificationError("interval lower bound exceeds upper bound")
        row = np.zeros(dimension)
        row[index] = 1.0
        a = np.vstack([row, -row])
        b = np.array([upper, -lower])
        return cls(a, b)

    @classmethod
    def argmax_region(cls, num_classes: int, winner: int, margin: float = 0.0) -> "HPolytope":
        """The region where output ``winner`` exceeds every other output.

        Encodes ``y[j] - y[winner] ≤ -margin`` for every ``j ≠ winner``,
        which is the "classified as ``winner``" constraint used throughout
        the paper's evaluation.
        """
        if not 0 <= winner < num_classes:
            raise SpecificationError(f"winner {winner} out of range for {num_classes} classes")
        if margin < 0:
            raise SpecificationError("margin must be non-negative")
        rows = []
        for other in range(num_classes):
            if other == winner:
                continue
            row = np.zeros(num_classes)
            row[other] = 1.0
            row[winner] = -1.0
            rows.append(row)
        a = np.array(rows)
        b = np.full(num_classes - 1, -margin)
        return cls(a, b)

    def __repr__(self) -> str:
        return f"HPolytope(constraints={self.num_constraints}, dim={self.output_dimension})"
