"""Batch Jacobian computation for the repair LPs.

The repair algorithms need, for every repair point ``x``, the pair
``(N(x), J_x)`` where ``J_x`` is the Jacobian of the DDNN output with respect
to the repaired value-channel layer's parameters (line 5 of Algorithm 1).
Both come from one vectorized multi-point pass,
:meth:`repro.core.ddnn.DecoupledNetwork.batch_parameter_jacobian` — the
library's only Jacobian computation; this module turns them into repair
constraint rows.  :class:`JacobianChunkStream` is the one encoder of the
repair data path: it walks a specification in point batches, encodes each
with the partition-invariant batch encoder, and yields bounded dense row
blocks ready for LP ingestion.  A specification that fits the chunk budget
is simply the one-chunk case.
"""

from __future__ import annotations

import numpy as np

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


class DenseRows(np.ndarray):
    """A dense row block that also reports its nonzero count, as a sparse one does.

    Observers of a :class:`JacobianChunkStream` (telemetry, benchmark
    tracers) read a block's ``shape`` and ``nnz`` whatever its format.
    """

    @property
    def nnz(self) -> int:
        """Entries that are not zero (``-0.0`` is zero)."""
        return int(np.count_nonzero(self))


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
    """Stream the repair constraint rows of a specification as dense chunks.

    Encoding a whole specification into one dense ``(total_rows,
    num_parameters)`` block would cost O(rows × params) transient memory.
    This stream instead walks the spec in *point batches* sized so the
    transient dense work stays under ``max_chunk_bytes`` (default
    :data:`DEFAULT_CHUNK_BYTES`, and never more than
    :data:`~repro.core.ddnn.POINT_BATCH` points); each batch is encoded
    with the partition-invariant batch encoder into one dense
    :class:`DenseRows` block over the layer's parameters (counted in
    ``repro_jacobian_chunks_total``).  Iterating yields ``(block, rhs)``
    pairs in specification order, ready for
    :meth:`repro.lp.model.LPSession.append_rows` streaming ingestion, which
    converts each block to CSR once.

    **Determinism contract.**  The blocks assemble into exactly the same
    standard-form arrays whatever the budget: batches of ≥2 points
    encode bit-identically to the same points inside a whole-pool encode
    (the einsums contract only over the output dimension; single points are
    padded), and vertically stacking the blocks' canonical CSR equals the
    CSR of the whole.  The differential matrix in ``tests/test_out_of_core.py``
    pins this.
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
            # the point's largest encoded (rows, P) block, in float64.
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

    def __iter__(self):
        """Yield ``(block, rhs)`` per point batch, in specification order."""
        for start, stop in self._spans:
            lhs, rhs = _encode_batch(
                self.ddnn, self.layer_index, _slice_spec(self.spec, start, stop)
            )
            self.chunks_produced += 1
            if obs.enabled():
                obs.counter(
                    "repro_jacobian_chunks_total",
                    "Jacobian chunks (one per point batch) produced by the "
                    "streamed repair path, by repaired layer.",
                    labels=("layer",),
                ).inc(layer=str(self.layer_index))
            yield lhs.view(DenseRows), rhs
