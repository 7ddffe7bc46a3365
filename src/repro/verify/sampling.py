"""Sampling-based verifiers: dense grids and seeded Monte-Carlo.

Both verifiers evaluate the network on finitely many points of each region
and report any point whose output violates the region's constraint.  Neither
can *certify* a region — a clean sweep only upgrades the region to
``UNKNOWN`` — but they are fast, work on arbitrary-dimensional boxes (which
the exact verifier cannot decompose), and in practice find the same
violations the exact verifier proves.

The hot path is fully batched: all sample points of a region go through the
network in one forward pass and through
:meth:`repro.polytope.hpolytope.HPolytope.violation_batch` in one matmul.
Regions are swept one at a time, so only one region's samples and outputs
are alive at once.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.ddnn import POINT_BATCH, DecoupledNetwork
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.utils.rng import ensure_rng
from repro.verify.base import (
    DEFAULT_TOLERANCE,
    Box,
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

    def _sweep_degenerate(self, network: Network | DecoupledNetwork, spec: VerificationSpec):
        """One stacked forward pass over an all-degenerate-box spec.

        Pointwise specifications (e.g. the ImageNet-style classification
        workload) carry tens of thousands of single-point regions; sweeping
        them one region-sized forward pass at a time wastes minutes on
        Python/BLAS dispatch overhead.  Here every region contributes its
        single point to chunked batch evaluations, then the per-region
        ``(points, outputs)`` pairs are re-sliced out — same points, same
        verdict structure, orders of magnitude fewer passes.
        """
        # Chunked at POINT_BATCH points: convolutional networks expand each
        # chunk into im2col patch tensors, so the chunk size bounds the
        # sweep's transient memory (and matches the batches the pool check
        # and the Jacobian encoder present to the frozen-prefix cache).
        stacked = np.vstack([entry.region.lower[None, :] for entry in spec.regions])
        outputs = np.vstack(
            [
                np.atleast_2d(self._evaluate(network, stacked[start : start + POINT_BATCH]))
                for start in range(0, stacked.shape[0], POINT_BATCH)
            ]
        )
        return (
            (stacked[index : index + 1].copy(), outputs[index : index + 1])
            for index in range(stacked.shape[0])
        )

    def _sweep(self, network: Network | DecoupledNetwork, spec: VerificationSpec):
        """Per-region (points, outputs) pairs, streamed one region at a time."""
        if self.certify_exhaustive and all(entry.is_point for entry in spec.regions):
            return self._sweep_degenerate(network, spec)
        return (
            (points, self._evaluate(network, points))
            for points in (self._sample_region(entry.region) for entry in spec.regions)
        )

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
            statuses: list[RegionStatus] = []
            margins: list[float] = []
            counterexamples: list[Counterexample] = []
            points_checked = 0
            sweep = self._sweep(network, spec)
            for (region_index, entry), (points, outputs) in zip(enumerate(spec.regions), sweep):
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
        return self._publish_report(
            VerificationReport(
                verifier=self.name,
                region_statuses=statuses,
                region_margins=margins,
                counterexamples=counterexamples,
                points_checked=points_checked,
                seconds=span.wall_seconds,
            )
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
    entirely of such regions additionally take a stacked fast path — one
    chunked forward pass over all regions instead of one pass per region —
    which is what makes driver-certified repairs of 10⁴–10⁵-point
    classification specs tractable.
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
    # Cap the total lattice size by shrinking the per-axis count.
    per_axis = min(resolution, max(2, int(max_points ** (1.0 / varying.size))))
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
