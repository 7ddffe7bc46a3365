"""Reference implementations the optimized data paths are checked against.

The library has one Jacobian computation (the batched
:meth:`DecoupledNetwork.batch_parameter_jacobian`), one encoder (the
batched chunk stream), one LP driver path (the repair session), one 2-D
SyReNN transform (the ragged batch of
:func:`repro.syrenn.plane.transform_planes`) and one exact-verifier report
(one stacked evaluation of every linear region).  These oracles are the
straightforward versions of the same math — Jacobian columns from two
network evaluations per parameter (exact by Theorem 4.5, and sharing no
code with the backward pass they check), one dense constraint block per
point, the repair LP's standard form written out by eye as dense arrays
and solved once, cold, on a fresh solver; one polygon at a time through every
layer, each piece clipped on its own by this module's copy of the
per-polygon half-plane clip (:func:`clip_by_function`,
:class:`VertexPolygon`), with one SVD per polygon for its plane
coordinates; one network evaluation per linear region (and, for the sampling
verifiers, per spec region); one max-pool backward per batch row; the
counterexample pool's repair spec with one tightened constraint and one
key-point expansion per entry; convolution and pooling by index gather,
``einsum`` and ``np.add.at`` (the layers read strided views and contract
with BLAS instead) — kept here so the tests can compare the optimized paths
against code simple enough to check by eye.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.core.ddnn import DecoupledNetwork
from repro.core.polytope_repair import region_key_points
from repro.core.result import RepairResult
from repro.core.specs import PointRepairSpec
from repro.exceptions import ShapeError
from repro.lp.backends import get_backend
from repro.lp.status import LPStatus
from repro.nn.conv import Conv2DLayer, conv_output_size
from repro.nn.layer import LayerKind
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.polytope.polygon import polygon_area
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.syrenn.plane import (
    SPLIT_TOLERANCE,
    PlanePartition,
    PlaneRegion,
    _check_supported,
)
from repro.syrenn.regions import LinearRegion
from repro.verify.base import (
    DEFAULT_TOLERANCE,
    Counterexample,
    RegionCounterexample,
    RegionStatus,
    VerificationReport,
    Verifier,
    _normalize_region,
)
from tests.standard_form import solve_form


def finite_difference_jacobians(
    ddnn: DecoupledNetwork,
    layer_index: int,
    value_points: np.ndarray,
    activation_points: np.ndarray | None = None,
    epsilon: float = 1e-6,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference parameter Jacobians for a batch of points.

    Two batched :meth:`DecoupledNetwork.compute` calls per parameter: every
    point in ``value_points`` shares the same ±ε parameter pokes, so the
    cost is ``2 · len(columns)`` network evaluations in total, not per
    point.  ``columns`` restricts the estimate to a parameter slice
    (default: all parameters); the result has shape ``(num_points,
    output_size, len(columns))``.  The layer's parameters are restored on
    exit.

    The DDNN output is affine in the layer's parameters (Theorem 4.5), so
    the difference quotient is exact up to rounding for every ``epsilon``.
    """
    layer = ddnn.value.layers[layer_index]
    base = layer.get_parameters()
    value_points = np.atleast_2d(np.asarray(value_points, dtype=np.float64))
    if activation_points is not None:
        activation_points = np.atleast_2d(np.asarray(activation_points, dtype=np.float64))
    if columns is None:
        columns = np.arange(base.size)
    columns = np.asarray(columns, dtype=int)
    jacobians = np.zeros((value_points.shape[0], ddnn.output_size, columns.size))
    try:
        for slot, column in enumerate(columns):
            perturbed = base.copy()
            perturbed[column] += epsilon
            layer.set_parameters(perturbed)
            plus = np.atleast_2d(ddnn.compute(value_points, activation_points))
            perturbed[column] -= 2 * epsilon
            layer.set_parameters(perturbed)
            minus = np.atleast_2d(ddnn.compute(value_points, activation_points))
            jacobians[:, :, slot] = (plus - minus) / (2 * epsilon)
    finally:
        layer.set_parameters(base)
    return jacobians


def exact_jacobians(
    ddnn: DecoupledNetwork,
    layer_index: int,
    points: np.ndarray,
    activation_points: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs ``(k, m)`` and Jacobians ``(k, m, P)`` from ``compute`` alone.

    Column ``j`` is ``(N_{+e_j}(x) - N_{-e_j}(x)) / 2``: the exact-difference
    form of Theorem 4.5 (:func:`finite_difference_jacobians` with
    ``epsilon=1``), exact up to rounding.
    """
    layer_index = ddnn._check_repairable(layer_index)
    outputs = np.atleast_2d(ddnn.compute(points, activation_points))
    jacobians = finite_difference_jacobians(
        ddnn, layer_index, points, activation_points, epsilon=1.0
    )
    return outputs, jacobians


def specification_jacobians(
    ddnn: DecoupledNetwork, layer_index: int, spec: PointRepairSpec
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`exact_jacobians` at a specification's points."""
    return exact_jacobians(ddnn, layer_index, spec.points, spec.activation_points)


def private_ddnn(network) -> DecoupledNetwork:
    """A DDNN of new layer objects, whose parameters an oracle may set freely."""
    if isinstance(network, DecoupledNetwork):
        return DecoupledNetwork(network.activation.copy(), network.value.copy())
    return DecoupledNetwork.from_network(network)


def max_row_violation(network, layer_index: int, spec: PointRepairSpec, delta) -> float:
    """Largest ``A_x (N(x) + J_x Δ) - b_x`` over every constraint row of ``spec``.

    ``N`` and ``J`` are the unrepaired network's, one point at a time, so
    this is the repair LP's own row check for a delta of layer
    ``layer_index``; a delta satisfies every row when the result is ≤ the
    solver's feasibility tolerance.
    """
    ddnn = private_ddnn(network)
    outputs, jacobians = specification_jacobians(ddnn, layer_index, spec)
    return max(
        float(np.max(constraint.a @ (outputs[index] + jacobians[index] @ delta) - constraint.b))
        for index, constraint in enumerate(spec.constraints)
    )


def repair_standard_form(num_parameters: int, norm: str, delta_bound, blocks):
    """The repair LP's ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``, dense, by eye.

    Variables: the ``num_parameters`` deltas, then the ℓ∞ bound ``t``
    and/or the ℓ1 auxiliaries ``t_i`` (``"l1+linf"``: ``t`` weighted by
    the delta count, then the ``t_i``).  Rows: ``Δ_i - t ≤ 0`` then
    ``-Δ_i - t ≤ 0`` per auxiliary kind, then each ``(lhs, rhs)`` of
    ``blocks`` over the deltas, in order.  No equality rows.
    """
    p = num_parameters
    kinds = {
        "linf": [("linf", 1.0)],
        "l1": [("l1", 1.0)],
        "l1+linf": [("linf", float(p)), ("l1", 1.0)],
    }[norm]
    n = p + sum(1 if kind == "linf" else p for kind, _ in kinds)
    c = np.zeros(n)
    rows, rhs = [], []
    column = p
    for kind, weight in kinds:
        width = 1 if kind == "linf" else p
        c[column:column + width] = weight
        aux = np.zeros((p, n))
        aux[:, column:column + width] = np.ones((p, 1)) if kind == "linf" else np.eye(p)
        for sign in (1.0, -1.0):
            row = -aux
            row[:, :p] = sign * np.eye(p)
            rows.append(row)
            rhs.append(np.zeros(p))
        column += width
    for lhs, block_rhs in blocks:
        wide = np.zeros((lhs.shape[0], n))
        wide[:, :p] = lhs
        rows.append(wide)
        rhs.append(np.asarray(block_rhs, dtype=np.float64))
    bound = np.inf if delta_bound is None else float(delta_bound)
    bounds = np.array([[-bound, bound]] * p + [[0.0, np.inf]] * (n - p))
    return c, np.vstack(rows), np.concatenate(rhs), np.zeros((0, n)), np.zeros(0), bounds


def solve_cold(form, *, sparse: bool = True):
    """One cold solve of a standard form on a fresh solver (loaded from CSR if ``sparse``)."""
    c, a_ub, b_ub, a_eq, b_eq, bounds = form
    if sparse:
        a_ub, a_eq = sp.csr_matrix(a_ub), sp.csr_matrix(a_eq)
    return solve_form(get_backend(), (c, a_ub, b_ub, a_eq, b_eq, bounds))


def oracle_point_repair(
    network,
    layer_index: int,
    spec: PointRepairSpec,
    *,
    norm: str = "linf",
    delta_bound: float | None = None,
    sparse: bool = True,
) -> RepairResult:
    """Algorithm 1 with a per-point encoding loop and one cold LP solve.

    Builds the same LP as :func:`repro.core.point_repair.point_repair` (norm
    rows first, then each point's rows in specification order) by eye with
    :func:`repair_standard_form`, and solves it with :func:`solve_cold`,
    handing the solver CSR or, with ``sparse=False``, dense matrices.
    """
    ddnn = private_ddnn(network)
    layer_index = ddnn._check_repairable(layer_index)
    num_parameters = ddnn.value.layers[layer_index].num_parameters
    outputs, jacobians = specification_jacobians(ddnn, layer_index, spec)
    # A_x (N(x) + J Δ) ≤ b_x   ⇔   (A_x J) Δ ≤ b_x - A_x N(x)
    blocks = [
        (constraint.a @ jacobians[index], constraint.b - constraint.a @ outputs[index])
        for index, constraint in enumerate(spec.constraints)
    ]
    form = repair_standard_form(num_parameters, norm, delta_bound, blocks)
    solution = solve_cold(form, sparse=sparse)
    common = dict(
        layer_index=layer_index,
        num_key_points=spec.num_points,
        num_constraint_rows=sum(block_rhs.size for _, block_rhs in blocks),
        num_variables=form[0].size,
        norm=norm,
    )
    if not solution.status.is_optimal:
        status = solution.status
        if status not in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
            status = LPStatus.ERROR
        return RepairResult(
            feasible=False, network=None, delta=None, lp_status=status, **common
        )
    delta = solution.values[:num_parameters]
    return RepairResult(
        feasible=True,
        network=ddnn.with_parameter_delta(layer_index, delta),
        delta=delta,
        lp_status=solution.status,
        objective_value=solution.objective,
        **common,
    )


# ----------------------------------------------------------------------
# Convolution and pooling by index gather, einsum and np.add.at
# ----------------------------------------------------------------------
def window_indices(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Row/column gather indices for im2col over a padded image.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows`` and ``cols`` have
    shape ``(kernel_h * kernel_w, out_h * out_w)`` and index into the padded
    image: row ``e`` lists, for every output position, the coordinates of
    window entry ``e`` (row-major over the kernel).
    """
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    kernel_rows = np.repeat(np.arange(kernel_h), kernel_w)
    kernel_cols = np.tile(np.arange(kernel_w), kernel_h)
    start_rows = stride * np.repeat(np.arange(out_h), out_w)
    start_cols = stride * np.tile(np.arange(out_w), out_h)
    rows = kernel_rows[:, None] + start_rows[None, :]
    cols = kernel_cols[:, None] + start_cols[None, :]
    return rows, cols, out_h, out_w


def _conv_indices(layer):
    rows, cols, _, _ = window_indices(
        layer.input_height, layer.input_width, layer.kernel_h, layer.kernel_w,
        layer.stride, layer.padding,
    )
    return rows, cols


def oracle_im2col(layer, values: np.ndarray) -> np.ndarray:
    """Conv im2col patches ``(batch, in_ch * kh * kw, P)`` by fancy indexing."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    batch = values.shape[0]
    images = values.reshape(batch, layer.in_channels, layer.input_height, layer.input_width)
    pad = layer.padding
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    rows, cols = _conv_indices(layer)
    return padded[:, :, rows, cols].reshape(batch, layer.in_channels * rows.shape[0], -1)


def oracle_col2im(layer, grad_patches: np.ndarray) -> np.ndarray:
    """Scatter patch gradients back to flat input gradients with ``np.add.at``."""
    batch = grad_patches.shape[0]
    pad = layer.padding
    grad_padded = np.zeros(
        (batch, layer.in_channels, layer.input_height + 2 * pad, layer.input_width + 2 * pad)
    )
    rows, cols = _conv_indices(layer)
    grad_patches = grad_patches.reshape(batch, layer.in_channels, rows.shape[0], -1)
    np.add.at(grad_padded, (slice(None), slice(None), rows, cols), grad_patches)
    if pad:
        grad_padded = grad_padded[:, :, pad:-pad, pad:-pad]
    return grad_padded.reshape(batch, -1)


def oracle_conv_forward(layer, values: np.ndarray) -> np.ndarray:
    """:meth:`Conv2DLayer.forward` as one einsum over gathered patches."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    kernel = layer.kernels.reshape(layer.out_channels, -1)
    response = np.einsum("oq,bqp->bop", kernel, oracle_im2col(layer, values))
    response += layer.biases[None, :, None]
    return response.reshape(values.shape[0], -1)


def oracle_conv_backward_input(layer, grad_output: np.ndarray) -> np.ndarray:
    """:meth:`Conv2DLayer.backward_input` by einsum and ``np.add.at``."""
    grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
    grad_maps = grad_output.reshape(grad_output.shape[0], layer.out_channels, -1)
    kernel = layer.kernels.reshape(layer.out_channels, -1)
    return oracle_col2im(layer, np.einsum("oq,bop->bqp", kernel, grad_maps))


def oracle_conv_parameter_jacobian(layer, downstream: np.ndarray, forward_inputs: np.ndarray):
    """:meth:`Conv2DLayer.batch_parameter_jacobian` as one einsum."""
    downstream = np.asarray(downstream, dtype=np.float64)
    k, m, _ = downstream.shape
    cols = oracle_im2col(layer, forward_inputs)
    reshaped = downstream.reshape(k, m, layer.out_channels, -1)
    kernel_block = np.einsum("kmcp,kqp->kmcq", reshaped, cols).reshape(k, m, -1)
    return np.concatenate([kernel_block, reshaped.sum(axis=3)], axis=2)


def oracle_conv_backward_parameters(layer, grad_output: np.ndarray, forward_input: np.ndarray):
    """:meth:`Conv2DLayer.backward_parameters` as one einsum."""
    grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
    grad_maps = grad_output.reshape(grad_output.shape[0], layer.out_channels, -1)
    patches = oracle_im2col(layer, forward_input)
    grad_kernels = np.einsum("bop,bqp->oq", grad_maps, patches)
    return np.concatenate([grad_kernels.ravel(), grad_maps.sum(axis=(0, 2))])


class EinsumConv2DLayer(Conv2DLayer):
    """A :class:`Conv2DLayer` that computes through the einsum oracles above."""

    def forward(self, values: np.ndarray) -> np.ndarray:
        return oracle_conv_forward(self, values)

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        return oracle_conv_backward_input(self, grad_output)

    def batch_parameter_jacobian(self, downstream: np.ndarray, forward_inputs: np.ndarray) -> np.ndarray:
        return oracle_conv_parameter_jacobian(self, downstream, forward_inputs)

    def backward_parameters(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        return oracle_conv_backward_parameters(self, grad_output, forward_input)


def with_einsum_convs(network: Network) -> Network:
    """``network`` with every convolution computed by :class:`EinsumConv2DLayer`."""
    return Network([
        EinsumConv2DLayer(
            layer.kernels, layer.biases,
            input_height=layer.input_height, input_width=layer.input_width,
            stride=layer.stride, padding=layer.padding,
        )
        if isinstance(layer, Conv2DLayer) else layer.copy()
        for layer in network.layers
    ])


def _pool_window_flat(layer) -> np.ndarray:
    rows, cols, _, _ = window_indices(
        layer.input_height, layer.input_width, layer.pool_size, layer.pool_size, layer.stride, 0
    )
    return rows * layer.input_width + cols                             # (k*k, P)


def oracle_pool_windows(layer, values: np.ndarray) -> np.ndarray:
    """Gather pooling windows by fancy indexing: ``(batch, channels, k*k, P)``."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    maps = values.reshape(values.shape[0], layer.channels, -1)
    return maps[:, :, _pool_window_flat(layer)]


def oracle_maxpool_forward(layer, values: np.ndarray) -> np.ndarray:
    """:meth:`MaxPool2DLayer.forward` as a max over gathered windows."""
    return oracle_pool_windows(layer, values).max(axis=2).reshape(np.atleast_2d(values).shape[0], -1)


def oracle_argmax_flat_indices(layer, batch: np.ndarray) -> np.ndarray:
    """:meth:`MaxPool2DLayer._argmax_flat_indices_batch` by ``np.argmax``."""
    windows = oracle_pool_windows(layer, batch)
    winners = windows.argmax(axis=2)
    spatial = np.take_along_axis(
        np.broadcast_to(_pool_window_flat(layer), windows.shape), winners[:, :, None, :], axis=2
    )[:, :, 0, :]
    channel_offsets = np.arange(layer.channels)[None, :, None] * layer.input_height * layer.input_width
    return (spatial + channel_offsets).reshape(windows.shape[0], -1)


def oracle_maxpool_decoupled_forward(layer, activation: np.ndarray, value: np.ndarray) -> np.ndarray:
    """:meth:`MaxPool2DLayer.decoupled_forward` by ``np.argmax`` and ``take_along_axis``."""
    winners = oracle_pool_windows(layer, activation).argmax(axis=2)
    value_windows = oracle_pool_windows(layer, value)
    selected = np.take_along_axis(value_windows, winners[:, :, None, :], axis=2)[:, :, 0, :]
    return selected.reshape(value_windows.shape[0], -1)


def oracle_avgpool_forward(layer, values: np.ndarray) -> np.ndarray:
    """:meth:`AvgPool2DLayer.forward` as a mean over gathered windows."""
    return oracle_pool_windows(layer, values).mean(axis=2).reshape(np.atleast_2d(values).shape[0], -1)


def oracle_avgpool_backward_input(layer, grad_output: np.ndarray) -> np.ndarray:
    """:meth:`AvgPool2DLayer.backward_input` with one ``np.add.at`` per window entry."""
    grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
    batch = grad_output.shape[0]
    share = grad_output.reshape(batch, layer.channels, -1) / float(layer.pool_size**2)
    grad_input = np.zeros((batch, layer.channels, layer.input_height * layer.input_width))
    for element in _pool_window_flat(layer):
        np.add.at(grad_input, (slice(None), slice(None), element), share)
    return grad_input.reshape(batch, -1)


def maxpool_backward_per_row(layer, grad_output: np.ndarray, forward_input: np.ndarray):
    """:meth:`MaxPool2DLayer.backward_input`, one batch row at a time.

    Each row's gradient is scattered onto the input coordinates that row's
    pooling windows select, with its own ``np.add.at``.
    """
    grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
    forward_input = np.atleast_2d(np.asarray(forward_input, dtype=np.float64))
    grad_input = np.zeros_like(forward_input)
    for row in range(forward_input.shape[0]):
        indices = layer._argmax_flat_indices_batch(forward_input[row : row + 1])[0]
        np.add.at(grad_input[row], indices, grad_output[row])
    return grad_input


# ----------------------------------------------------------------------
# 2-D SyReNN, one polygon at a time
# ----------------------------------------------------------------------
#: Vertices whose clip function magnitude is below this are treated as lying
#: exactly on the clipping line.
CLIP_TOLERANCE = 1e-9

#: Polygons with fewer than three vertices or (relative) area below this are
#: discarded by the splitting routines.
DEGENERATE_AREA = 1e-12


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


def _plane_coordinates(plane_vertices: np.ndarray) -> np.ndarray:
    """Project the polygon vertices onto an orthonormal basis of their plane.

    One polygon at a time; :func:`repro.syrenn.plane._plane_coordinates_stacked`
    runs the same SVD and projection on every polygon of a batch at once.
    """
    origin = plane_vertices[0]
    offsets = plane_vertices - origin
    # Build an orthonormal basis of the (at most 2-D) span of the offsets.
    _, singular_values, basis = np.linalg.svd(offsets, full_matrices=False)
    rank = int(np.sum(singular_values > 1e-9))
    if rank > 2:
        raise ShapeError("plane vertices do not lie in a 2-D affine subspace")
    basis = basis[:2] if basis.shape[0] >= 2 else np.vstack([basis, np.zeros_like(basis[:1])])
    return offsets @ basis.T


def oracle_transform_plane(network, plane_vertices: np.ndarray) -> PlanePartition:
    """``LinRegions(network, polygon)`` with one ``forward`` per piece per layer.

    Every piece of the polygon goes through every layer on its own, and
    every piece is offered to :func:`_oracle_split_one` at every breakpoint.
    """
    _check_supported(network)
    plane_vertices = np.asarray(plane_vertices, dtype=np.float64)
    if plane_vertices.ndim != 2 or plane_vertices.shape[0] < 3:
        raise ShapeError("plane_vertices must be a (k >= 3, n) array of polygon vertices")
    if plane_vertices.shape[1] != network.input_size:
        raise ShapeError(
            f"plane vertices have dimension {plane_vertices.shape[1]}, "
            f"network expects {network.input_size}"
        )

    plane_coordinates = _plane_coordinates(plane_vertices)
    # Attribute layout per vertex: [input point (n), current values (varies)].
    initial_attributes = np.hstack([plane_vertices, plane_vertices])
    polygons = [VertexPolygon(plane_coordinates, initial_attributes)]
    input_dim = plane_vertices.shape[1]

    for layer in network.layers:
        if layer.kind is LayerKind.ACTIVATION:
            breakpoints = layer.piecewise_breakpoints()
            polygons = _oracle_split_all(polygons, input_dim, breakpoints)
            polygons = [
                _apply_to_values(polygon, input_dim, layer.forward) for polygon in polygons
            ]
        else:
            polygons = [
                _apply_to_values(polygon, input_dim, layer.forward) for polygon in polygons
            ]

    regions = [
        PlaneRegion(
            input_vertices=polygon.attributes[:, :input_dim].copy(),
            plane_vertices=polygon.plane_points.copy(),
            interior_point=polygon.attributes[:, :input_dim].mean(axis=0),
        )
        for polygon in polygons
    ]
    return PlanePartition(regions=regions)


def _apply_to_values(polygon: VertexPolygon, input_dim: int, function) -> VertexPolygon:
    """Apply ``function`` to the value part of a polygon's attributes."""
    inputs_part = polygon.attributes[:, :input_dim]
    values_part = polygon.attributes[:, input_dim:]
    new_values = function(values_part)
    return VertexPolygon(polygon.plane_points.copy(), np.hstack([inputs_part, new_values]))


def _oracle_split_all(
    polygons: list[VertexPolygon], input_dim: int, breakpoints: tuple[float, ...]
) -> list[VertexPolygon]:
    """Split every polygon on every coordinate/breakpoint combination."""
    for threshold in breakpoints:
        updated: list[VertexPolygon] = []
        for polygon in polygons:
            updated.extend(_oracle_split_one(polygon, input_dim, threshold))
        polygons = updated
    return polygons


def _oracle_split_one(
    polygon: VertexPolygon, input_dim: int, threshold: float
) -> list[VertexPolygon]:
    """Split one polygon on every value coordinate crossing ``threshold``."""
    pending = [polygon]
    num_values = polygon.attributes.shape[1] - input_dim
    for coordinate in range(num_values):
        next_pending: list[VertexPolygon] = []
        for piece in pending:
            function_values = piece.attributes[:, input_dim + coordinate] - threshold
            if np.all(function_values >= -SPLIT_TOLERANCE) or np.all(
                function_values <= SPLIT_TOLERANCE
            ):
                next_pending.append(piece)
                continue
            positive, negative = piece.split(function_values)
            if positive is not None:
                next_pending.append(positive)
            if negative is not None:
                next_pending.append(negative)
            if positive is None and negative is None:
                next_pending.append(piece)
        pending = next_pending
    return pending


# ----------------------------------------------------------------------
# Exact verification, one linear region at a time
# ----------------------------------------------------------------------
def _oracle_linear_regions(activation_network, region) -> list[LinearRegion]:
    if isinstance(region, LineSegment):
        partition = transform_line(activation_network, region)
        return [
            LinearRegion(vertices=piece.vertices, interior=piece.interior_point)
            for piece in partition.regions
        ]
    if isinstance(region, np.ndarray) and region.ndim == 1:
        return [LinearRegion(vertices=region[None, :], interior=region)]
    partition = oracle_transform_plane(activation_network, region)
    return [
        LinearRegion(vertices=piece.input_vertices, interior=piece.interior_point)
        for piece in partition.regions
    ]


def oracle_verify(
    network,
    spec,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    region_counterexamples: bool = False,
) -> VerificationReport:
    """What :meth:`SyrennVerifier.verify` reports, one linear region at a time.

    Each spec region is decomposed on its own (planes through
    :func:`oracle_transform_plane`) and each linear region's vertices are
    evaluated in their own network call, pinned to the region's interior.
    """
    start = time.perf_counter()
    activation_network = (
        network.activation if isinstance(network, DecoupledNetwork) else network
    )
    statuses: list[RegionStatus] = []
    margins: list[float] = []
    counterexamples: list[Counterexample] = []
    points_checked = 0
    linear_regions_checked = 0
    for region_index, entry in enumerate(spec.regions):
        normalized = _normalize_region(entry.region)
        if normalized is None:  # a box the 1-D/2-D substrate cannot decompose
            statuses.append(RegionStatus.UNKNOWN)
            margins.append(float("-inf"))
            continue
        linear_regions = _oracle_linear_regions(activation_network, normalized)
        linear_regions_checked += len(linear_regions)
        region_margin = float("-inf")
        region_violated = False
        for linear_region in linear_regions:
            points_checked += linear_region.vertices.shape[0]
            outputs = Verifier._evaluate(network, linear_region.vertices, linear_region.interior)
            vertex_margins = entry.constraint.violation_batch(outputs)
            region_margin = max(region_margin, float(np.max(vertex_margins)))
            violating = np.where(vertex_margins > tolerance)[0]
            if violating.size == 0:
                continue
            region_violated = True
            if region_counterexamples:
                worst = int(np.argmax(vertex_margins))
                counterexamples.append(
                    RegionCounterexample(
                        point=linear_region.vertices[worst].copy(),
                        constraint=entry.constraint,
                        margin=float(vertex_margins[worst]),
                        region_index=region_index,
                        activation_point=linear_region.interior.copy(),
                        vertices=linear_region.vertices.copy(),
                    )
                )
                continue
            for vertex_index in violating:
                counterexamples.append(
                    Counterexample(
                        point=linear_region.vertices[vertex_index].copy(),
                        constraint=entry.constraint,
                        margin=float(vertex_margins[vertex_index]),
                        region_index=region_index,
                        activation_point=linear_region.interior.copy(),
                    )
                )
        statuses.append(RegionStatus.VIOLATED if region_violated else RegionStatus.CERTIFIED)
        margins.append(region_margin)
    return VerificationReport(
        verifier="syrenn",
        region_statuses=statuses,
        region_margins=margins,
        counterexamples=counterexamples,
        points_checked=points_checked,
        linear_regions_checked=linear_regions_checked,
        seconds=time.perf_counter() - start,
    )


def oracle_sampling_verify(verifier, network, spec) -> VerificationReport:
    """What a sampling verifier's ``verify`` reports, one spec region at a time.

    Each region's samples (``verifier._sample_region``) go through the
    network in their own call and through ``violation_batch`` on their own;
    a clean single-point region is certified under ``certify_exhaustive``.
    The stacked report of an all-point spec must match this loop.
    """
    start = time.perf_counter()
    statuses: list[RegionStatus] = []
    margins: list[float] = []
    counterexamples: list[Counterexample] = []
    points_checked = 0
    for region_index, entry in enumerate(spec.regions):
        points = verifier._sample_region(entry.region)
        outputs = Verifier._evaluate(network, points)
        points_checked += points.shape[0]
        point_margins = entry.constraint.violation_batch(outputs)
        margins.append(float(np.max(point_margins)))
        violating = np.where(point_margins > verifier.tolerance)[0]
        if violating.size == 0:
            statuses.append(
                RegionStatus.CERTIFIED
                if verifier.certify_exhaustive and entry.is_point
                else RegionStatus.UNKNOWN
            )
            continue
        statuses.append(RegionStatus.VIOLATED)
        order = violating[np.argsort(-point_margins[violating])]
        if verifier.max_counterexamples_per_region is not None:
            order = order[: verifier.max_counterexamples_per_region]
        for index in order:
            counterexamples.append(
                Counterexample(
                    point=points[index].copy(),
                    constraint=entry.constraint,
                    margin=float(point_margins[index]),
                    region_index=region_index,
                )
            )
    return VerificationReport(
        verifier=verifier.name,
        region_statuses=statuses,
        region_margins=margins,
        counterexamples=counterexamples,
        points_checked=points_checked,
        seconds=time.perf_counter() - start,
    )


def oracle_pool_point_spec(pool, margin: float = 0.0, start: int = 0) -> PointRepairSpec:
    """``pool.point_spec``, one tightened constraint and expansion per entry."""
    points: list[np.ndarray] = []
    activation_points: list[np.ndarray] = []
    constraints: list = []
    for counterexample in pool.iter_entries(start):
        tightened = HPolytope(counterexample.constraint.a, counterexample.constraint.b - margin)
        entry_points, entry_activations, entry_constraints = region_key_points(
            counterexample.key_points(), counterexample.resolved_activation_point(), tightened
        )
        points.extend(entry_points)
        activation_points.extend(entry_activations)
        constraints.extend(entry_constraints)
    return PointRepairSpec(
        points=np.array(points),
        constraints=constraints,
        activation_points=np.array(activation_points),
    )


def oracle_unsatisfied(pool, network, tolerance: float = 1e-6) -> list[int]:
    """``pool.unsatisfied``, one network call per entry."""
    unsatisfied = []
    for index, counterexample in enumerate(pool.iter_entries()):
        key_points = counterexample.key_points()
        if isinstance(network, DecoupledNetwork):
            activations = np.broadcast_to(
                counterexample.resolved_activation_point(), key_points.shape
            )
            outputs = np.atleast_2d(network.compute(key_points, np.ascontiguousarray(activations)))
        else:
            outputs = np.atleast_2d(network.compute(key_points))
        if np.any(counterexample.constraint.violation_batch(outputs) > tolerance):
            unsatisfied.append(index)
    return unsatisfied
