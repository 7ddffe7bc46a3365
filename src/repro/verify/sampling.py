"""Sampling-based verifiers: dense grids and seeded Monte-Carlo.

Both verifiers evaluate the network on finitely many points of each region
and report any point whose output violates the region's constraint.  Neither
can *certify* a region — a clean sweep only upgrades the region to
``UNKNOWN`` — but they are fast, work on arbitrary-dimensional boxes (which
the exact verifier cannot decompose), and in practice find the same
violations the exact verifier proves.

The hot path is fully batched.  In general regions are swept one at a time:
all sample points of a region go through the network in one forward pass and
through :meth:`repro.polytope.hpolytope.HPolytope.violation_batch` in one
matmul, so only one region's samples and outputs are alive at once.  A spec
made only of single-point regions under ``certify_exhaustive`` (a pointwise
repair specification) is instead reported from one stacked pass: every point
goes through the network in ``POINT_BATCH``-row chunks, the margins take one
``violation_batch`` per distinct constraint, and statuses and
counterexamples are read off the margin vector — no Python work per region
beyond building its counterexample.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.ddnn import POINT_BATCH, DecoupledNetwork
from repro.exceptions import SpecificationError
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.utils.rng import ensure_rng
from repro.verify.base import (
    DEFAULT_TOLERANCE,
    Box,
    ConstraintGroups,
    Counterexample,
    RegionStatus,
    VerificationReport,
    VerificationSpec,
    Verifier,
)


def grid_region_points(region, resolution: int, max_points: int) -> np.ndarray:
    """The deterministic dense sweep points of one region."""
    if isinstance(region, LineSegment):
        return region.points_at(np.linspace(0.0, 1.0, resolution))
    if isinstance(region, Box):
        return _box_lattice(region, resolution, max_points)
    return _polygon_grid(np.atleast_2d(np.asarray(region)), resolution)


def random_region_points(region, num_samples: int, rng: np.random.Generator) -> np.ndarray:
    """``num_samples`` random points of one region, drawn from ``rng``."""
    if isinstance(region, LineSegment):
        return region.sample(num_samples, rng)
    if isinstance(region, Box):
        return rng.uniform(region.lower, region.upper, size=(num_samples, region.dimension))
    vertices = np.atleast_2d(np.asarray(region))
    weights = rng.dirichlet(np.ones(vertices.shape[0]), size=num_samples)
    return weights @ vertices


class _SamplingVerifier(Verifier):
    """Shared verify() skeleton: subclasses only choose the sample points."""

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        max_counterexamples_per_region: int | None = 32,
        certify_exhaustive: bool = False,
    ) -> None:
        super().__init__(tolerance)
        self.max_counterexamples_per_region = max_counterexamples_per_region
        self.certify_exhaustive = bool(certify_exhaustive)

    def _sample_region(self, region) -> np.ndarray:
        raise NotImplementedError

    def verify(
        self, network: Network | DecoupledNetwork, spec: VerificationSpec
    ) -> VerificationReport:
        """Evaluate sampled points per region and report violations.

        Sampling cannot certify in general — a clean sweep only upgrades a
        region to ``UNKNOWN``.  The one exception is ``certify_exhaustive``:
        a fully-degenerate box holds a single point, the sweep evaluates
        exactly that point, and a clean result is therefore a proof.
        """
        self._check_spec(network, spec)
        with obs.timed("verify", verifier=self.name) as span:
            if self.certify_exhaustive and all(entry.is_point for entry in spec.regions):
                report = self._point_report(network, spec)
            else:
                report = self._region_report(network, spec)
        report.seconds = span.wall_seconds
        return self._publish_report(report)

    def _point_report(
        self, network: Network | DecoupledNetwork, spec: VerificationSpec
    ) -> VerificationReport:
        """The report of an all-single-point spec, from one stacked pass.

        Pointwise specifications (e.g. the ImageNet-style classification
        workload) carry thousands of single-point regions.  Their points go
        through the network in ``POINT_BATCH``-row chunks — convolutional
        networks expand each chunk into im2col patch tensors, so the chunk
        size bounds the transient memory, and it matches the batches the
        pool check and the Jacobian encoder present to the frozen-prefix
        cache — and the margins take one ``violation_batch`` per distinct
        constraint (by bytes, as in the exact verifier's report).  Each region is
        its own only sample, so its margin decides it: ``VIOLATED`` with
        one counterexample above the tolerance, ``CERTIFIED`` otherwise.
        """
        regions = spec.regions
        points = np.array([entry.region.lower for entry in regions])
        outputs = np.vstack(
            [
                np.atleast_2d(self._evaluate(network, points[start : start + POINT_BATCH]))
                for start in range(0, points.shape[0], POINT_BATCH)
            ]
        )
        groups = ConstraintGroups()
        region_group = np.array([groups.group(entry.constraint) for entry in regions])
        margins = np.empty(len(regions))
        for group, constraint in enumerate(groups.constraints):
            rows = np.flatnonzero(region_group == group)
            margins[rows] = constraint.violation_batch(outputs[rows])
        violated = margins > self.tolerance
        statuses = [
            RegionStatus.VIOLATED if flag else RegionStatus.CERTIFIED
            for flag in violated.tolist()
        ]
        counterexamples: list[Counterexample] = []
        cap = self.max_counterexamples_per_region
        if cap is None or cap > 0:
            # One copy per point: a pool holding a counterexample must not
            # keep the whole stacked batch alive after it spills the rest.
            indices = np.flatnonzero(violated)
            counterexamples = [
                Counterexample(
                    point=points[index].copy(),
                    constraint=regions[index].constraint,
                    margin=margin,
                    region_index=index,
                )
                for index, margin in zip(indices.tolist(), margins[indices].tolist())
            ]
        return VerificationReport(
            verifier=self.name,
            region_statuses=statuses,
            region_margins=margins.tolist(),
            counterexamples=counterexamples,
            points_checked=points.shape[0],
        )

    def _region_report(
        self, network: Network | DecoupledNetwork, spec: VerificationSpec
    ) -> VerificationReport:
        """The report of any spec, sweeping one region's samples at a time."""
        statuses: list[RegionStatus] = []
        margins: list[float] = []
        counterexamples: list[Counterexample] = []
        points_checked = 0
        for region_index, entry in enumerate(spec.regions):
            points = self._sample_region(entry.region)
            outputs = self._evaluate(network, points)
            points_checked += points.shape[0]
            point_margins = entry.constraint.violation_batch(outputs)
            margins.append(float(np.max(point_margins)))
            violating = np.where(point_margins > self.tolerance)[0]
            if violating.size == 0:
                # A single-point region's sample set *is* the region
                # (every sampling subclass evaluates exactly that
                # point), so a clean sweep of it is a proof.
                statuses.append(
                    RegionStatus.CERTIFIED
                    if self.certify_exhaustive and entry.is_point
                    else RegionStatus.UNKNOWN
                )
                continue
            statuses.append(RegionStatus.VIOLATED)
            # Keep the worst offenders first; cap to keep reports small.
            order = violating[np.argsort(-point_margins[violating])]
            if self.max_counterexamples_per_region is not None:
                order = order[: self.max_counterexamples_per_region]
            counterexamples.extend(
                Counterexample(
                    point=points[index].copy(),
                    constraint=entry.constraint,
                    margin=float(point_margins[index]),
                    region_index=region_index,
                )
                for index in order
            )
        return VerificationReport(
            verifier=self.name,
            region_statuses=statuses,
            region_margins=margins,
            counterexamples=counterexamples,
            points_checked=points_checked,
        )


class GridVerifier(_SamplingVerifier):
    """Dense deterministic sweep over each region.

    Segments get ``resolution`` equally spaced points; planar polygons get a
    barycentric grid of roughly ``resolution²/2`` points per fan triangle;
    boxes get an axis-aligned lattice capped at ``max_points_per_region``
    total points (the per-axis count shrinks with the number of varying
    dimensions, so high-dimensional boxes stay tractable).

    ``certify_exhaustive=True`` lets the verifier *certify* single-point
    regions (fully-degenerate boxes): the sweep evaluates the region's only
    point, so a clean result is a proof.  Pointwise specifications made
    entirely of such regions additionally take a stacked path — one chunked
    forward pass over all regions and one margin computation per distinct
    constraint, instead of one pass per region — which is what makes
    driver-certified repairs of 10⁴–10⁵-point classification specs
    tractable.

    A box varying in more dimensions than a lattice of two points per axis
    can cover within ``max_points_per_region`` (more than
    ``log2(max_points_per_region)``) raises :class:`SpecificationError`.
    """

    name = "grid"

    def __init__(
        self,
        resolution: int = 16,
        *,
        tolerance: float = DEFAULT_TOLERANCE,
        max_points_per_region: int = 4096,
        max_counterexamples_per_region: int | None = 32,
        certify_exhaustive: bool = False,
    ) -> None:
        super().__init__(tolerance, max_counterexamples_per_region, certify_exhaustive)
        if resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        self.resolution = int(resolution)
        self.max_points_per_region = int(max_points_per_region)

    def _sample_region(self, region) -> np.ndarray:
        return grid_region_points(region, self.resolution, self.max_points_per_region)


class RandomVerifier(_SamplingVerifier):
    """Seeded Monte-Carlo search with per-point margin tracking.

    Each call draws fresh samples, so repeated rounds of a repair driver
    probe different points while the whole run stays reproducible from the
    seed: every sweep draws from one sequential generator.
    """

    name = "random"

    def __init__(
        self,
        num_samples: int = 256,
        seed: int | np.random.Generator | None = 0,
        *,
        tolerance: float = DEFAULT_TOLERANCE,
        max_counterexamples_per_region: int | None = 32,
    ) -> None:
        super().__init__(tolerance, max_counterexamples_per_region)
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        self.num_samples = int(num_samples)
        self._rng = ensure_rng(seed)

    def _sample_region(self, region) -> np.ndarray:
        return random_region_points(region, self.num_samples, self._rng)


def _box_lattice(box: Box, resolution: int, max_points: int) -> np.ndarray:
    """An axis-aligned lattice over the box's varying dimensions."""
    varying = box.varying_dimensions()
    if varying.size == 0:
        return box.lower[None, :].copy()
    if 2**varying.size > max_points:
        raise SpecificationError(
            f"a box varying in {varying.size} dimensions needs at least "
            f"2**{varying.size} lattice points, over max_points_per_region={max_points}"
        )
    # Cap the total lattice size by shrinking the per-axis count to the
    # largest n with n**k <= max_points.  The float root may land a hair
    # below an integer root, so round it and step back if that overshoots.
    per_axis = round(max_points ** (1.0 / varying.size))
    per_axis -= per_axis**varying.size > max_points
    per_axis = min(resolution, max(2, per_axis))
    axes = [np.linspace(box.lower[dim], box.upper[dim], per_axis) for dim in varying]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.broadcast_to(box.lower, (mesh[0].size, box.dimension)).copy()
    for position, dim in enumerate(varying):
        points[:, dim] = mesh[position].ravel()
    return points


def _polygon_grid(vertices: np.ndarray, resolution: int) -> np.ndarray:
    """A barycentric grid over a convex polygon, triangulated as a fan.

    Fan triangle ``i`` is ``(v0, vi, vi+1)``; it shares the edge
    ``(v0, vi)`` — the points with zero weight on ``vi+1`` — with triangle
    ``i-1``, so those points are dropped from every triangle after the
    first to avoid evaluating the network twice on the same inputs.
    """
    steps = np.linspace(0.0, 1.0, resolution)
    full = np.array(
        [(1.0 - u - v, u, v) for u in steps for v in steps if u + v <= 1.0 + 1e-12]
    )
    interior = full[full[:, 2] > 1e-12]
    points = []
    for second in range(1, vertices.shape[0] - 1):
        triangle = np.stack([vertices[0], vertices[second], vertices[second + 1]])
        weights = full if second == 1 else interior
        points.append(weights @ triangle)
    return np.vstack(points)
