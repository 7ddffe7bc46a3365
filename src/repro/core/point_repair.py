"""Provable Pointwise Repair — Algorithm 1 of the paper.

Given a network ``N``, a layer index ``i``, and a pointwise repair
specification ``(X, A·, b·)``, the algorithm:

1. constructs the trivially equivalent DDNN (Theorem 4.4);
2. for every point ``x ∈ X`` computes the output ``N(x)`` and the Jacobian
   ``J_x`` of the DDNN output with respect to the parameters of value layer
   ``i`` (exact by Theorem 4.5);
3. collects the linear constraints ``A_x (N(x) + J_x Δ) ≤ b_x``;
4. solves an LP minimizing the ℓ∞ and/or ℓ1 norm of ``Δ``;
5. adds the optimal ``Δ`` into the value layer.

The result is either a repaired DDNN that provably satisfies the
specification with a minimal single-layer change, or a proof (LP
infeasibility) that no single-layer repair of layer ``i`` exists.

Two implementations of steps 2–3 exist.  The **batched engine** (default)
computes all Jacobians in one vectorized multi-point pass
(:meth:`~repro.core.ddnn.DecoupledNetwork.batch_parameter_jacobian`) and
assembles the constraint rows of every point with grouped einsums into a
single LP block, which downstream becomes a sparse CSR standard form.  The
**legacy engine** (``batched=False``) loops over the points one at a time; it
is retained as the reference implementation for differential testing — both
engines produce the same LP, row for row.
"""

from __future__ import annotations

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import (
    JacobianChunkStream,
    encode_constraints_batched,
    encode_constraints_padded,
)
from repro.core.result import RepairResult, RepairTiming
from repro.core.specs import PointRepairSpec
from repro.exceptions import SpecificationError
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.nn.network import Network
from repro.utils.timing import Stopwatch


def point_repair(
    network: Network | DecoupledNetwork,
    layer_index: int,
    spec: PointRepairSpec,
    *,
    norm: str = "linf",
    backend: str | None = None,
    delta_bound: float | None = None,
    timing: RepairTiming | None = None,
    batched: bool = True,
    sparse: bool | None = None,
    max_chunk_bytes: int | None = None,
    engine=None,
) -> RepairResult:
    """Repair one (value-channel) layer so every spec point satisfies its constraint.

    Parameters
    ----------
    network:
        The buggy network.  A plain :class:`Network` is decoupled first
        (Theorem 4.4); an existing :class:`DecoupledNetwork` is copied.
    layer_index:
        Index of the layer to repair; must be a parameterized layer.
    spec:
        The pointwise repair specification.
    norm:
        Norm of ``Δ`` to minimize — ``"linf"``, ``"l1"``, or ``"l1+linf"``.
    backend:
        LP backend name (``None`` = default scipy/HiGHS backend).
    delta_bound:
        Optional box bound ``|Δ_i| ≤ delta_bound`` added to every delta
        variable; occasionally useful to keep very large repairs numerically
        tame.  ``None`` (the default, and the paper's setting) leaves the
        deltas free.
    timing:
        An existing :class:`RepairTiming` to accumulate into (used by the
        polytope repair algorithm, which has already spent time computing
        linear regions).
    batched:
        ``True`` (the default) computes all spec-point Jacobians in one
        vectorized pass and encodes the LP constraints as a single block;
        ``False`` uses the legacy one-point-at-a-time loop.  Both paths
        build the same LP (identical rows in identical order) — the flag
        exists for differential testing and performance comparison.
    sparse:
        Forwarded to :meth:`repro.lp.model.LPModel.solve`: ``True`` hands
        the backend a CSR standard form, ``False`` a dense one, ``None``
        (default) lets the backend's ``supports_sparse`` flag decide.
    max_chunk_bytes:
        ``None`` (default) keeps the in-memory path: one dense
        ``(total_rows, params)`` block.  A byte budget switches to the
        out-of-core path — a :class:`~repro.core.jacobian.JacobianChunkStream`
        feeds bounded CSR row blocks straight into the model, so the dense
        intermediate never exceeds the budget.  Both paths assemble the
        same standard form byte for byte.
    engine:
        Optional :class:`~repro.engine.engine.ShardedSyrennEngine` used to
        shard chunk encoding across workers (chunked path only; merged in
        input order, so results stay byte-identical to serial).
    """
    if spec.input_dimension != _input_size(network):
        raise SpecificationError(
            f"specification points have dimension {spec.input_dimension}, "
            f"network expects {_input_size(network)}"
        )
    watch = Stopwatch()
    timing = timing if timing is not None else RepairTiming()

    ddnn = _working_copy(network)
    layer_index = ddnn._check_repairable(layer_index)
    num_parameters = ddnn.value.layers[layer_index].num_parameters

    model = LPModel()
    bound = np.inf if delta_bound is None else float(delta_bound)
    delta_indices = model.add_variables(num_parameters, "delta", lower=-bound, upper=bound)
    # The norm rows go in *first* so constraint rows always occupy the tail
    # of the inequality block: an IncrementalPointRepairSession that appends
    # counterexample rows round after round then produces exactly this row
    # order, which is what keeps incremental and cold solves byte-identical.
    add_norm_objective(model, delta_indices, norm)

    with watch.phase("jacobian"):
        if max_chunk_bytes is not None:
            stream = JacobianChunkStream(
                ddnn, layer_index, spec, max_chunk_bytes=max_chunk_bytes, engine=engine
            )
            constraint_rows = 0
            for matrix, rhs in stream:
                model.add_leq_block(matrix, rhs, delta_indices)
                constraint_rows += int(rhs.size)
            encoded_blocks = []
        elif batched:
            lhs, rhs = encode_constraints_batched(ddnn, layer_index, spec)
            encoded_blocks = [(lhs, rhs)]
            constraint_rows = rhs.size
        else:
            constraint_rows = 0
            encoded_blocks = []
            for index in range(spec.num_points):
                output, jacobian = ddnn.parameter_jacobian(
                    layer_index, spec.points[index], spec.activation_point(index)
                )
                constraint = spec.constraints[index]
                # A_x (N(x) + J Δ) ≤ b_x   ⇔   (A_x J) Δ ≤ b_x - A_x N(x)
                encoded_blocks.append(
                    (constraint.a @ jacobian, constraint.b - constraint.a @ output)
                )
                constraint_rows += constraint.num_constraints
    for matrix, rhs in encoded_blocks:
        model.add_leq_block(matrix, rhs, delta_indices)

    with watch.phase("lp"):
        solution = model.solve(backend, sparse=sparse)

    timing.jacobian_seconds += watch.total("jacobian")
    timing.lp_seconds += watch.total("lp")
    timing.other_seconds += watch.other()

    if not solution.status.is_optimal:
        feasible = False
        status = solution.status
        if status not in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
            status = LPStatus.ERROR
        return RepairResult(
            feasible=feasible,
            network=None,
            delta=None,
            layer_index=layer_index,
            lp_status=status,
            timing=timing,
            num_key_points=spec.num_points,
            num_constraint_rows=constraint_rows,
            num_variables=model.num_variables,
            norm=norm,
        )

    delta = solution.value_of(delta_indices)
    ddnn.apply_parameter_delta(layer_index, delta)
    return RepairResult(
        feasible=True,
        network=ddnn,
        delta=delta,
        layer_index=layer_index,
        lp_status=solution.status,
        timing=timing,
        num_key_points=spec.num_points,
        num_constraint_rows=constraint_rows,
        num_variables=model.num_variables,
        objective_value=solution.objective,
        norm=norm,
    )


# The grouped-einsum encoder moved to repro.core.jacobian so the chunk
# stream and the engine workers can share it; the old private name stays
# importable for differential tests written against it.
_encode_constraints_batched = encode_constraints_batched


def _input_size(network: Network | DecoupledNetwork) -> int:
    return network.input_size


def _working_copy(network: Network | DecoupledNetwork) -> DecoupledNetwork:
    """A private DDNN copy to encode against, bound to the caller's prefix cache.

    ``copy()`` never carries a binding; a repair's own working copy is the
    one exception, so its Jacobian encoding reuses the prefix features the
    caller's verification already computed.
    """
    if not isinstance(network, DecoupledNetwork):
        return DecoupledNetwork.from_network(network)
    ddnn = network.copy()
    if network.prefix_cache is not None:
        network.prefix_cache.bind(ddnn)
    return ddnn


class IncrementalPointRepairSession:
    """A pointwise repair LP that grows across CEGIS rounds.

    A repair driver solves ``point_repair(base, layer, pool)`` every round
    with a pool that only ever grows, so round *k*'s LP is round *k-1*'s
    plus the new counterexamples' rows.  This session exploits that: it
    keeps one :class:`~repro.lp.model.LPModel` (delta variables plus the
    norm objective) alive, :meth:`append_points` encodes **only the new
    points'** Jacobian rows (the per-round Jacobian cost scales with the new
    points, not the pool), and :meth:`solve` re-solves through an
    :class:`~repro.lp.model.LPSession` that threads each round's
    :class:`~repro.lp.model.WarmStart` handle into the next solve.

    Because :func:`point_repair` emits the norm rows first, the session's
    standard form is row-for-row identical to what a cold ``point_repair``
    of the whole accumulated spec would build — so for a backend whose warm
    start is exact (``warm_start_is_exact``), incremental solves return
    byte-identical deltas to cold ones.

    The session encodes against a private copy of the base network and never
    mutates it; each feasible :meth:`solve` returns a *fresh* repaired copy.
    """

    def __init__(
        self,
        network: Network | DecoupledNetwork,
        layer_index: int,
        *,
        norm: str = "linf",
        backend: str | None = None,
        delta_bound: float | None = None,
        sparse: bool | None = None,
        warm_start: bool = True,
        max_chunk_bytes: int | None = None,
        engine=None,
    ) -> None:
        self.ddnn = _working_copy(network)
        self.layer_index = self.ddnn._check_repairable(layer_index)
        self.norm = norm
        self.warm_start = bool(warm_start)
        self.max_chunk_bytes = max_chunk_bytes
        self.engine = engine
        num_parameters = self.ddnn.value.layers[self.layer_index].num_parameters
        self.model = LPModel()
        bound = np.inf if delta_bound is None else float(delta_bound)
        self.delta_indices = self.model.add_variables(
            num_parameters, "delta", lower=-bound, upper=bound
        )
        add_norm_objective(self.model, self.delta_indices, norm)
        self.session = self.model.incremental_session(sparse=sparse, backend=backend)
        self.num_points = 0
        self.constraint_rows = 0
        self.rows_appended_last = 0
        self.last_solution = None
        self._handle = None
        self._pending_timing = RepairTiming()

    def append_points(self, spec: PointRepairSpec) -> int:
        """Encode and append the constraint rows of ``spec``'s points.

        Returns the number of LP rows appended.  ``spec`` must contain only
        points *not* previously appended — the caller (the driver) slices
        its pool.
        """
        if spec.input_dimension != self.ddnn.input_size:
            raise SpecificationError(
                f"specification points have dimension {spec.input_dimension}, "
                f"network expects {self.ddnn.input_size}"
            )
        watch = Stopwatch()
        if self.max_chunk_bytes is not None:
            # Out-of-core append: the chunk stream yields bounded CSR row
            # blocks which append_rows ingests one at a time, so neither the
            # dense intermediate nor more than one chunk is ever in flight.
            with watch.phase("jacobian"):
                stream = JacobianChunkStream(
                    self.ddnn,
                    self.layer_index,
                    spec,
                    max_chunk_bytes=self.max_chunk_bytes,
                    engine=self.engine,
                )
                rows = self.session.append_rows(
                    stream=(
                        (matrix, rhs, self.delta_indices) for matrix, rhs in stream
                    )
                )
        else:
            with watch.phase("jacobian"):
                # The single-point pad (see encode_constraints_padded): NumPy
                # routes one-row matmuls through a different BLAS kernel than
                # larger batches, whose last-bit rounding differs — padding
                # keeps every appended row on the same batched code path as a
                # cold whole-pool encoding, preserving byte-identity.
                lhs, rhs = encode_constraints_padded(self.ddnn, self.layer_index, spec)
            self.model.add_leq_block(lhs, rhs, self.delta_indices)
            rows = self.session.append_rows()
        self.num_points += spec.num_points
        self.constraint_rows += rows
        self.rows_appended_last = rows
        self._pending_timing.jacobian_seconds += watch.total("jacobian")
        self._pending_timing.other_seconds += watch.other()
        return rows

    def solve(self) -> RepairResult:
        """Solve the accumulated LP, warm-started from the previous round."""
        watch = Stopwatch()
        with watch.phase("lp"):
            solution = self.session.solve(
                warm_start=self._handle if self.warm_start else None
            )
        self.last_solution = solution
        timing = self._pending_timing
        timing.lp_seconds += watch.total("lp")
        timing.other_seconds += watch.other()
        self._pending_timing = RepairTiming()

        if not solution.status.is_optimal:
            status = solution.status
            if status not in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
                status = LPStatus.ERROR
            return RepairResult(
                feasible=False,
                network=None,
                delta=None,
                layer_index=self.layer_index,
                lp_status=status,
                timing=timing,
                num_key_points=self.num_points,
                num_constraint_rows=self.constraint_rows,
                num_variables=self.model.num_variables,
                norm=self.norm,
            )
        self._handle = solution.warm_start
        delta = solution.value_of(self.delta_indices)
        repaired = self.ddnn.copy()
        repaired.apply_parameter_delta(self.layer_index, delta)
        return RepairResult(
            feasible=True,
            network=repaired,
            delta=delta,
            layer_index=self.layer_index,
            lp_status=solution.status,
            timing=timing,
            num_key_points=self.num_points,
            num_constraint_rows=self.constraint_rows,
            num_variables=self.model.num_variables,
            objective_value=solution.objective,
            norm=self.norm,
        )
