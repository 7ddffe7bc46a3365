"""Batch Jacobian computation for the repair LPs.

The repair algorithms need, for every repair point ``x``, the pair
``(N(x), J_x)`` where ``J_x`` is the Jacobian of the DDNN output with respect
to the repaired value-channel layer's parameters (line 5 of Algorithm 1).
The vectorized multi-point computation lives on
:meth:`repro.core.ddnn.DecoupledNetwork.batch_parameter_jacobian` (the
single-point version on :meth:`~repro.core.ddnn.DecoupledNetwork.parameter_jacobian`);
this module turns them into repair constraint rows.  :class:`JacobianChunkStream`
is the one encoder of the repair data path: it walks a specification in
point batches, encodes each with the partition-invariant batch encoder, and
yields bounded CSR row blocks ready for LP
ingestion.  A specification that fits the chunk budget is simply the
one-chunk case.  The module also provides a finite-difference checker used
by the test-suite to validate the closed-form Jacobians.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.core.ddnn import POINT_BATCH, DecoupledNetwork
from repro.core.specs import PointRepairSpec

#: Default per-chunk budget for :class:`JacobianChunkStream` — sized so the
#: transient dense (rows × parameters) batch stays comfortably in cache-warm
#: territory while keeping per-chunk Python overhead negligible.
DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024


def _encode_batch(
    ddnn: DecoupledNetwork, layer_index: int, spec: PointRepairSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``A_x (N(x) + J_x Δ) ≤ b_x`` for one batch of spec points.

    Returns ``(lhs, rhs)`` such that the repair constraints are exactly
    ``lhs @ Δ ≤ rhs``, with rows in specification order (point 0's rows
    first).  The Jacobians come from one vectorized multi-point pass (the
    batches verification and the pool check evaluate, so a bound prefix
    cache serves them), and the per-point products ``A_x J_x`` are computed
    with einsums over groups of points sharing a constraint-row count, so
    no Python loop runs per point.

    A single-point batch is padded to two (the point duplicated) and the
    duplicate's rows dropped: NumPy routes one-row matmuls through a
    different BLAS kernel than larger batches, whose last-bit rounding
    differs.  Since the grouped einsums contract only over the output
    dimension, any batch of ≥2 points produces rows bit-identical to the
    same points inside a larger batch, so this encoder is partition
    invariant — the property :class:`JacobianChunkStream` relies on.  Callers keep batches at most
    :data:`~repro.core.ddnn.POINT_BATCH` points.
    """
    if spec.num_points == 1:
        padded = PointRepairSpec(
            points=np.repeat(spec.points, 2, axis=0),
            constraints=list(spec.constraints) * 2,
            activation_points=(
                np.repeat(spec.activation_points, 2, axis=0)
                if spec.activation_points is not None
                else None
            ),
        )
        lhs, rhs = _encode_batch(ddnn, layer_index, padded)
        rows = spec.constraints[0].num_constraints
        return lhs[:rows], rhs[:rows]
    outputs, jacobians = ddnn.batch_parameter_jacobian(
        layer_index, spec.points, spec.activation_points
    )
    num_parameters = jacobians.shape[2]
    rows_per_point = np.array(
        [constraint.num_constraints for constraint in spec.constraints], dtype=int
    )
    total_rows = int(rows_per_point.sum())
    row_offsets = np.concatenate([[0], np.cumsum(rows_per_point)[:-1]])
    lhs = np.empty((total_rows, num_parameters))
    rhs = np.empty(total_rows)
    for count in np.unique(rows_per_point):
        group = np.where(rows_per_point == count)[0]
        a = np.stack([spec.constraints[index].a for index in group])  # (g, count, m)
        b = np.stack([spec.constraints[index].b for index in group])  # (g, count)
        target = (row_offsets[group][:, None] + np.arange(count)[None, :]).ravel()
        lhs[target] = np.einsum("gcm,gmp->gcp", a, jacobians[group]).reshape(-1, num_parameters)
        rhs[target] = (b - np.einsum("gcm,gm->gc", a, outputs[group])).ravel()
    return lhs, rhs


def _batch_spans(num_points: int, points_per_batch: int) -> list[tuple[int, int]]:
    """``[start, stop)`` spans cutting ``num_points`` into consecutive batches."""
    return [
        (start, min(start + points_per_batch, num_points))
        for start in range(0, num_points, points_per_batch)
    ]


def _slice_spec(spec: PointRepairSpec, start: int, stop: int) -> PointRepairSpec:
    """The sub-specification covering points ``[start, stop)``."""
    return PointRepairSpec(
        points=spec.points[start:stop],
        constraints=list(spec.constraints[start:stop]),
        activation_points=(
            spec.activation_points[start:stop]
            if spec.activation_points is not None
            else None
        ),
    )


class JacobianChunkStream:
    """Stream the repair constraint rows of a specification as CSR chunks.

    Encoding a whole specification into one dense ``(total_rows,
    num_parameters)`` block would cost O(rows × params) transient memory.
    This stream instead walks the spec in *point batches* sized so the
    transient dense work stays under ``max_chunk_bytes`` (default
    :data:`DEFAULT_CHUNK_BYTES`, and never more than
    :data:`~repro.core.ddnn.POINT_BATCH` points); each batch is encoded
    with the partition-invariant batch encoder, cut into per-parameter-slice CSR pieces (each also bounded by
    ``max_chunk_bytes``, and counted in ``repro_jacobian_chunks_total``),
    and the pieces of one batch are reassembled into a full-width CSR row
    block.  Iterating yields ``(csr_block, rhs)`` pairs in specification
    order, ready for :meth:`repro.lp.model.LPSession.append_rows` streaming
    ingestion.

    **Determinism contract.**  The CSR blocks assemble into exactly the same
    standard-form arrays whatever the budget: batches of ≥2 points
    encode bit-identically to the same points inside a whole-pool encode
    (the einsums contract only over the output dimension; single points are
    padded), column slicing is pure indexing, and vertically stacking
    canonical CSR pieces equals the CSR of the whole.  The differential
    matrix in ``tests/test_out_of_core.py`` pins this.
    """

    def __init__(
        self,
        ddnn: DecoupledNetwork,
        layer_index: int,
        spec: PointRepairSpec,
        *,
        max_chunk_bytes: int | None = None,
        points_per_batch: int | None = None,
    ) -> None:
        self.ddnn = ddnn
        self.layer_index = ddnn._check_repairable(layer_index)
        self.spec = spec
        self.max_chunk_bytes = int(
            DEFAULT_CHUNK_BYTES if max_chunk_bytes is None else max_chunk_bytes
        )
        if self.max_chunk_bytes < 1:
            raise ValueError("max_chunk_bytes must be positive")
        self.num_parameters = ddnn.value.layers[self.layer_index].num_parameters
        if points_per_batch is None:
            # Transient dense footprint per point: the (m, P) Jacobian plus
            # the largest encoded (rows, P) slice of a point, in float64.
            max_rows = max(
                (constraint.num_constraints for constraint in spec.constraints), default=1
            )
            per_point = 8 * self.num_parameters * (ddnn.output_size + max_rows)
            points_per_batch = self.max_chunk_bytes // max(1, per_point)
        self.points_per_batch = int(
            min(max(1, points_per_batch), POINT_BATCH, max(1, spec.num_points))
        )
        self._spans = _batch_spans(spec.num_points, self.points_per_batch)
        self.chunks_produced = 0

    def __len__(self) -> int:
        """Number of row blocks the stream will yield."""
        return len(self._spans)

    def _column_slices(self, rows: int) -> list[tuple[int, int]]:
        """Parameter-slice spans keeping each CSR piece under budget."""
        width = self.max_chunk_bytes // max(1, 8 * rows)
        width = int(min(max(1, width), self.num_parameters))
        return [
            (start, min(start + width, self.num_parameters))
            for start in range(0, self.num_parameters, width)
        ]

    def _pieces(self, lhs: np.ndarray) -> list[sp.csr_matrix]:
        """One encoded batch as per-parameter-slice canonical CSR pieces."""
        pieces = [
            sp.csr_matrix(lhs[:, start:stop]) for start, stop in self._column_slices(lhs.shape[0])
        ]
        self.chunks_produced += len(pieces)
        if obs.enabled():
            obs.counter(
                "repro_jacobian_chunks_total",
                "CSR Jacobian chunks produced by the streamed repair path, "
                "per (point-batch × parameter-slice), by repaired layer.",
                labels=("layer",),
            ).inc(len(pieces), layer=str(self.layer_index))
        return pieces

    def _assemble(self, lhs: np.ndarray) -> sp.csr_matrix:
        pieces = self._pieces(lhs)
        if len(pieces) == 1:
            return pieces[0]
        block = sp.hstack(pieces).tocsr()
        block.sum_duplicates()
        block.sort_indices()
        return block

    def __iter__(self):
        """Yield ``(csr_block, rhs)`` per point batch, in specification order."""
        for start, stop in self._spans:
            lhs, rhs = _encode_batch(
                self.ddnn, self.layer_index, _slice_spec(self.spec, start, stop)
            )
            yield self._assemble(lhs), rhs


def finite_difference_jacobians(
    ddnn: DecoupledNetwork,
    layer_index: int,
    value_points: np.ndarray,
    activation_points: np.ndarray | None = None,
    epsilon: float = 1e-6,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Numerically estimate parameter Jacobians for a *batch* of points.

    Central differences, two batched forward passes per parameter: every
    point in ``value_points`` shares the same ±ε parameter pokes, so the
    cost is ``2 · len(columns)`` network evaluations total instead of
    ``2 · len(columns)`` *per point* — which is what lets the chunk-stream
    oracle tests afford conv layers.  ``columns`` restricts the estimate to
    a parameter slice (default: all parameters); the result has shape
    ``(num_points, output_size, len(columns))``.

    Only used for testing — it is exact up to floating point for DDNNs since
    the output is affine in the layer's parameters (Theorem 4.5), which is
    precisely what the tests verify against the closed form.
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


def finite_difference_jacobian(
    ddnn: DecoupledNetwork,
    layer_index: int,
    value_point: np.ndarray,
    activation_point: np.ndarray | None = None,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Single-point wrapper over :func:`finite_difference_jacobians`."""
    return finite_difference_jacobians(
        ddnn,
        layer_index,
        np.asarray(value_point, dtype=np.float64)[None, :],
        None if activation_point is None else
        np.asarray(activation_point, dtype=np.float64)[None, :],
        epsilon=epsilon,
    )[0]
