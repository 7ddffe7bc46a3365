"""ExactLine: the 1-D linear-region decomposition of a PWL network.

Given a line segment in the input space of a piecewise-linear network, the
algorithm pushes the segment's endpoint ratios through the network layer by
layer.  Affine layers keep the current breakpoints; each element-wise
piecewise-linear activation inserts new breakpoints wherever a coordinate of
the current representation crosses one of the activation's breakpoints
(e.g. 0 for ReLU).  Because the representation is affine in the ratio within
each current piece, the crossing ratios are found by exact linear
interpolation.  The result is the list of ratios ``0 = t₀ < t₁ < ... < tₖ =
1`` such that the network is affine on every ``[tᵢ, tᵢ₊₁]`` — exactly
``LinRegions(N, segment)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import NotPiecewiseLinearError
from repro.nn.layer import LayerKind
from repro.nn.network import Network
from repro.polytope.segment import LineSegment

#: Two ratios closer than this are merged into a single breakpoint.
RATIO_TOLERANCE = 1e-9


@dataclass
class LineRegion:
    """One linear region of the network restricted to the segment.

    Attributes
    ----------
    start_ratio, end_ratio:
        The region is ``{segment.point_at(t) : start_ratio ≤ t ≤ end_ratio}``.
    segment:
        The original input segment.
    """

    start_ratio: float
    end_ratio: float
    segment: LineSegment

    @property
    def vertices(self) -> np.ndarray:
        """The two endpoints of the region, in input space: shape ``(2, n)``."""
        return self.segment.points_at(np.array([self.start_ratio, self.end_ratio]))

    @property
    def interior_point(self) -> np.ndarray:
        """The input-space midpoint of the region (strictly interior)."""
        return self.segment.point_at(0.5 * (self.start_ratio + self.end_ratio))

    @property
    def width(self) -> float:
        """Length of the region in ratio units."""
        return self.end_ratio - self.start_ratio


@dataclass
class LinePartition:
    """The full decomposition of a segment into linear regions."""

    segment: LineSegment
    ratios: np.ndarray

    @property
    def num_regions(self) -> int:
        """Number of linear regions (= number of breakpoints - 1)."""
        return max(0, self.ratios.size - 1)

    @property
    def regions(self) -> list[LineRegion]:
        """The linear regions, in order of increasing ratio."""
        return [
            LineRegion(float(self.ratios[i]), float(self.ratios[i + 1]), self.segment)
            for i in range(self.num_regions)
        ]

    @property
    def breakpoint_inputs(self) -> np.ndarray:
        """Input-space points at every breakpoint ratio: ``(k+1, n)``."""
        return self.segment.points_at(self.ratios)

    def num_key_points(self) -> int:
        """Number of (vertex, region) key points generated for repair.

        Each region contributes its two endpoints (Appendix B: interior
        breakpoints are counted once per adjacent region).
        """
        return 2 * self.num_regions


def _check_piecewise_linear(network: Network) -> None:
    for layer in network.layers:
        if layer.kind is LayerKind.ACTIVATION and not layer.is_piecewise_linear:
            raise NotPiecewiseLinearError(
                f"{type(layer).__name__} is not piecewise linear; polytope repair "
                "requires PWL activation functions (paper §6)"
            )


def _insert_crossings(
    ratios: np.ndarray, values: np.ndarray, breakpoints: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Insert ratios where any coordinate crosses any activation breakpoint.

    Every (piece, coordinate, breakpoint) triple at once: a piece wider
    than ``RATIO_TOLERANCE`` whose end values lie on opposite sides of a
    breakpoint gets the crossing ``left + fraction * span``, element-wise
    the arithmetic of a per-piece loop, so every ratio keeps its bits.
    """
    spans = ratios[1:] - ratios[:-1]
    live = np.flatnonzero(spans > RATIO_TOLERANCE)
    thresholds = np.asarray(breakpoints, dtype=values.dtype)[:, None, None]
    left_side = values[live] - thresholds
    right_side = values[live + 1] - thresholds
    crossing = ((left_side > 0) != (right_side > 0)) & (np.abs(left_side - right_side) > 0)
    _, pieces, _ = np.nonzero(crossing)
    fractions = left_side[crossing] / (left_side[crossing] - right_side[crossing])
    inside = (fractions > RATIO_TOLERANCE) & (fractions < 1.0 - RATIO_TOLERANCE)
    if not inside.any():
        return ratios, values
    pieces = live[pieces[inside]]
    new_ratios = ratios[pieces] + fractions[inside] * spans[pieces]
    merged = np.unique(np.concatenate([ratios, new_ratios]))
    # Drop ratios that coincide (within tolerance) with an existing one.
    keep = np.concatenate([[True], np.diff(merged) > RATIO_TOLERANCE])
    merged = merged[keep]
    return merged, None  # values must be recomputed by the caller


def transform_line(network: Network, segment: LineSegment) -> LinePartition:
    """Compute ``LinRegions(network, segment)`` exactly.

    The network must use only piecewise-linear activation functions whose
    pieces are delimited by element-wise thresholds (ReLU, LeakyReLU,
    HardTanh) or be affine (fully-connected, convolution, pooling by
    average, flatten, normalization).  Max-pooling is currently not
    supported by the SyReNN substrate.
    """
    _check_piecewise_linear(network)
    ratios = np.array([0.0, 1.0])
    # Current representation of the breakpoint points at the current layer.
    current = segment.points_at(ratios)
    for layer in network.layers:
        if layer.kind is LayerKind.ACTIVATION:
            breakpoints = layer.piecewise_breakpoints()
            updated_ratios, _ = _insert_crossings(ratios, current, breakpoints)
            if updated_ratios.size != ratios.size:
                ratios = updated_ratios
                # Recompute the representation at the new ratios by pushing the
                # corresponding input points through all layers seen so far.
                current = _representation_at(network, segment, ratios, layer)
            current = layer.forward(current)
        else:
            current = layer.forward(current)
    return LinePartition(segment=segment, ratios=ratios)


def _representation_at(
    network: Network, segment: LineSegment, ratios: np.ndarray, upto_layer
) -> np.ndarray:
    """Push the input points at ``ratios`` through layers before ``upto_layer``."""
    current = segment.points_at(ratios)
    for layer in network.layers:
        if layer is upto_layer:
            break
        current = layer.forward(current)
    return current
