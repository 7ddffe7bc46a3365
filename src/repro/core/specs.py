"""Repair specifications (Definitions 5.1 and 6.1 of the paper).

A *pointwise* repair specification pairs finitely many input points with an
output polytope each: the repaired network must map every point into its
polytope.  A *polytope* repair specification does the same for finitely many
input polytopes (line segments or planar polygons), each containing
infinitely many points.

The most common output polytope in the evaluation is the "classified as
label y" region, produced by :func:`classification_constraint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SpecificationError
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment


#: An output constraint is simply an output-space polytope ``{y : A y ≤ b}``.
OutputConstraint = HPolytope


#: Vertex arrays up to this many rows are first checked for duplicates by
#: comparing every pair of rows, which is cheaper than sorting them.
PAIRWISE_DEDUPE_ROWS = 64


def dedupe_exact_vertices(vertices: np.ndarray) -> np.ndarray:
    """Drop exact-duplicate rows of a vertex array, preserving first-seen order.

    Repeated vertices in a polygon specification are geometrically inert but
    not free: every duplicate becomes a duplicate (key point, activation
    point, constraint) row in Algorithm 2's reduction, bloating the repair
    LP.  Only *exact* duplicates are dropped — nearby-but-distinct vertices
    are kept, since collapsing those would change the polygon.  Rows are
    compared with ``==`` (so ``0.0`` and ``-0.0`` are duplicates and NaN
    rows never are), as :func:`numpy.unique` does; an array with nothing
    to drop is returned as is.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    if vertices.shape[0] <= PAIRWISE_DEDUPE_ROWS:
        equal = (vertices[:, None, :] == vertices[None, :, :]).all(axis=2)
        np.fill_diagonal(equal, False)
        if not equal.any():
            return vertices
    _, first_seen = np.unique(vertices, axis=0, return_index=True)
    if first_seen.size == vertices.shape[0]:
        return vertices
    return vertices[np.sort(first_seen)]


def checked_plane_vertices(vertices) -> np.ndarray:
    """A planar polygon's vertex array, validated and deduplicated.

    The vertices must form a 2-D array of finite values with at least three
    distinct rows (:func:`dedupe_exact_vertices`; an array with nothing to
    drop comes back as is).
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.ndim != 2:
        raise SpecificationError("a planar polytope's vertices must be a (k, n) array")
    if not np.all(np.isfinite(vertices)):
        raise SpecificationError("a planar polytope's vertices must be finite")
    vertices = dedupe_exact_vertices(vertices)
    if vertices.shape[0] < 3:
        raise SpecificationError("a planar polytope needs at least three vertices")
    return vertices


def classification_constraint(num_classes: int, label: int, margin: float = 0.0) -> HPolytope:
    """The constraint "output ``label`` is the (strict) argmax".

    ``margin`` requires the winning logit to beat every other logit by at
    least that amount, which makes repaired classifications robust to the
    floating-point noise of re-evaluating the network.
    """
    return HPolytope.argmax_region(num_classes, label, margin)


@dataclass
class PointRepairSpec:
    """A pointwise repair specification ``(X, A·, b·)``.

    Attributes
    ----------
    points:
        ``(k, n)`` array of repair points.
    constraints:
        One :class:`OutputConstraint` per point.
    activation_points:
        Optional ``(k, n)`` array.  When given, point ``i``'s constraint is
        evaluated on the DDNN with the activation channel run on
        ``activation_points[i]`` instead of ``points[i]``.  This is how the
        polytope repair algorithm pins each key point to the linear region it
        represents (Appendix B); ordinary pointwise specifications leave it
        ``None``.
    """

    points: np.ndarray
    constraints: list[OutputConstraint]
    activation_points: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if self.points.shape[0] != len(self.constraints):
            raise SpecificationError(
                f"{self.points.shape[0]} points but {len(self.constraints)} constraints"
            )
        if self.points.shape[0] == 0:
            raise SpecificationError("a pointwise specification needs at least one point")
        if self.activation_points is not None:
            self.activation_points = np.atleast_2d(
                np.asarray(self.activation_points, dtype=np.float64)
            )
            if self.activation_points.shape != self.points.shape:
                raise SpecificationError(
                    "activation_points must have the same shape as points"
                )

    @property
    def num_points(self) -> int:
        """Number of repair points."""
        return self.points.shape[0]

    @property
    def num_constraint_rows(self) -> int:
        """Total number of half-space constraint rows across all points."""
        return sum(constraint.num_constraints for constraint in self.constraints)

    @property
    def input_dimension(self) -> int:
        """Dimension of the input space."""
        return self.points.shape[1]

    def activation_point(self, index: int) -> np.ndarray:
        """The activation point used for repair point ``index``."""
        if self.activation_points is None:
            return self.points[index]
        return self.activation_points[index]

    @classmethod
    def from_labels(
        cls,
        points,
        labels,
        num_classes: int,
        margin: float = 0.0,
    ) -> "PointRepairSpec":
        """Build a classification spec: point ``i`` must be classified ``labels[i]``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        labels = np.asarray(labels, dtype=int).ravel()
        if points.shape[0] != labels.size:
            raise SpecificationError("one label per point is required")
        constraints = [
            classification_constraint(num_classes, int(label), margin) for label in labels
        ]
        return cls(points=points, constraints=constraints)

    def is_satisfied_by(self, network, tolerance: float = 1e-6) -> bool:
        """Whether ``network`` (Network or DDNN) satisfies every constraint."""
        for index in range(self.num_points):
            try:
                output = network.compute(self.points[index], self.activation_point(index))
            except TypeError:
                output = network.compute(self.points[index])
            if not self.constraints[index].contains(np.asarray(output), tolerance):
                return False
        return True


@dataclass
class PolytopeEntry:
    """One input polytope and the output constraint it must map into."""

    region: LineSegment | np.ndarray
    constraint: OutputConstraint


@dataclass
class PolytopeRepairSpec:
    """A polytope repair specification ``(X, A·, b·)``.

    Input polytopes are either :class:`LineSegment` objects (1-D polytopes)
    or ``(k, n)`` vertex arrays of convex planar polygons (2-D polytopes).
    """

    entries: list[PolytopeEntry] = field(default_factory=list)

    @property
    def num_polytopes(self) -> int:
        """Number of input polytopes in the specification."""
        return len(self.entries)

    def add_segment(self, segment: LineSegment, constraint: OutputConstraint) -> None:
        """Require every point of ``segment`` to map into ``constraint``."""
        self.entries.append(PolytopeEntry(segment, constraint))

    def add_plane(self, vertices, constraint: OutputConstraint) -> None:
        """Require every point of the convex planar polygon to map into ``constraint``.

        ``vertices`` is a ``(k ≥ 3, n)`` array of input-space points lying in
        a 2-D affine subspace; they are stored in convex position.  Exact
        duplicate vertices are dropped here, at construction — repeated
        vertices would otherwise turn into duplicate key-point rows in every
        LP built from this specification (:func:`checked_plane_vertices`).
        """
        self.entries.append(PolytopeEntry(checked_plane_vertices(vertices), constraint))

    @classmethod
    def from_segments(
        cls, segments: list[LineSegment], constraints: list[OutputConstraint]
    ) -> "PolytopeRepairSpec":
        """Build a specification from parallel lists of segments and constraints."""
        if len(segments) != len(constraints):
            raise SpecificationError("one constraint per segment is required")
        if not segments:
            raise SpecificationError("a polytope specification needs at least one polytope")
        spec = cls()
        for segment, constraint in zip(segments, constraints):
            spec.add_segment(segment, constraint)
        return spec

    def sample_points(self, per_polytope: int, rng: np.random.Generator) -> tuple[np.ndarray, list[OutputConstraint]]:
        """Sample finitely many points from the polytopes (for FT/MFT baselines).

        The paper's baselines cannot consume infinite specifications, so they
        are given randomly sampled points from each polytope (§7, "Fine-Tuning
        Baselines"); this helper produces those samples.
        """
        points: list[np.ndarray] = []
        constraints: list[OutputConstraint] = []
        for entry in self.entries:
            if isinstance(entry.region, LineSegment):
                sampled = entry.region.sample(per_polytope, rng)
            else:
                sampled = _sample_polygon(entry.region, per_polytope, rng)
            points.append(sampled)
            constraints.extend([entry.constraint] * sampled.shape[0])
        return np.vstack(points), constraints


def _sample_polygon(vertices: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish samples from a convex polygon via convex combinations."""
    weights = rng.dirichlet(np.ones(vertices.shape[0]), size=count)
    return weights @ vertices
