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

There is one implementation of steps 2–4.  An
:class:`IncrementalPointRepairSession` holds the LP, an
:class:`~repro.lp.model.LPSession` with the delta variables and the norm
objective; :meth:`~IncrementalPointRepairSession.append_points` streams
the constraint rows of a batch of points into it as bounded CSR blocks
(:class:`~repro.core.jacobian.JacobianChunkStream`, vectorized multi-point
Jacobians), and :meth:`~IncrementalPointRepairSession.solve` solves it.
:func:`point_repair` is the one-shot case — one append, one solve — and
the CEGIS driver keeps a session alive across rounds, appending only each
round's new points.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import JacobianChunkStream
from repro.core.result import RepairResult, RepairTiming
from repro.core.specs import PointRepairSpec
from repro.exceptions import SpecificationError
from repro.lp.model import LPSession
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.nn.network import Network


def point_repair(
    network: Network | DecoupledNetwork,
    layer_index: int,
    spec: PointRepairSpec,
    *,
    norm: str = "linf",
    delta_bound: float | None = None,
    max_chunk_bytes: int | None = None,
) -> RepairResult:
    """Repair one (value-channel) layer so every spec point satisfies its constraint.

    Parameters
    ----------
    network:
        The buggy network.  A plain :class:`Network` is decoupled first
        (Theorem 4.4); an existing :class:`DecoupledNetwork` is used as is.
    layer_index:
        Index of the layer to repair; must be a parameterized layer.
    spec:
        The pointwise repair specification.
    norm:
        Norm of ``Δ`` to minimize — ``"linf"``, ``"l1"``, or ``"l1+linf"``.
    delta_bound:
        Optional box bound ``|Δ_i| ≤ delta_bound`` added to every delta
        variable; occasionally useful to keep very large repairs numerically
        tame.  ``None`` (the default, and the paper's setting) leaves the
        deltas free.
    max_chunk_bytes:
        Per-chunk budget of the constraint-row stream (``None`` =
        :data:`~repro.core.jacobian.DEFAULT_CHUNK_BYTES`).  Any budget
        assembles the same standard form byte for byte; a small one bounds
        the dense intermediate of very large specifications.

    The result's ``timing`` is the split of this call's ``repair.point``
    span (see :meth:`RepairTiming.from_spans`).
    """
    with obs.timed("repair.point", layer=layer_index) as span:
        session = IncrementalPointRepairSession(
            network,
            layer_index,
            norm=norm,
            delta_bound=delta_bound,
            max_chunk_bytes=max_chunk_bytes,
        )
        session.append_points(spec)
        result = session.solve()
    result.timing = RepairTiming.from_spans(span)
    return result


class IncrementalPointRepairSession:
    """A pointwise repair LP that grows across CEGIS rounds.

    A repair driver solves ``point_repair(base, layer, pool)`` every round
    with a pool that only ever grows, so round *k*'s LP is round *k-1*'s
    plus the new counterexamples' rows.  This session exploits that: it
    keeps one :class:`~repro.lp.model.LPSession` (delta variables, the norm
    objective and every row appended so far) alive, :meth:`append_points`
    encodes **only the new points'** Jacobian rows (the per-round Jacobian
    cost scales with the new points, not the pool), and :meth:`solve`
    re-solves it warm.

    The delta variables come first, so every Jacobian row block covers the
    leading variables.  The norm rows go in first and are always in the
    solver's model; the constraint rows follow in append order and enter it
    by row generation (see :class:`~repro.lp.model.LPSession`).  A session
    fed the points in any number of appends builds the same LP, row for
    row, as one fed them all at once, and the same appends give the same
    bytes.  Solving between appends changes which rows were admitted and
    where the warm re-solves start, so a driver's final delta matches a
    one-shot :func:`point_repair` of the final pool in verdict and
    objective (1e-9 relative), not in bytes.

    The session encodes against the caller's network (and its prefix cache)
    and never modifies it; each feasible :meth:`solve` derives a *fresh*
    repaired network from it.
    """

    def __init__(
        self,
        network: Network | DecoupledNetwork,
        layer_index: int,
        *,
        norm: str = "linf",
        delta_bound: float | None = None,
        max_chunk_bytes: int | None = None,
    ) -> None:
        self.ddnn = (
            network
            if isinstance(network, DecoupledNetwork)
            else DecoupledNetwork.from_network(network)
        )
        self.layer_index = self.ddnn._check_repairable(layer_index)
        self.norm = norm
        self.max_chunk_bytes = max_chunk_bytes
        num_parameters = self.ddnn.value.layers[self.layer_index].num_parameters
        self.session = LPSession()
        bound = np.inf if delta_bound is None else float(delta_bound)
        self.delta_indices = self.session.add_variables(
            num_parameters, lower=-bound, upper=bound
        )
        add_norm_objective(self.session, self.delta_indices, norm)
        self.num_points = 0
        self.constraint_rows = 0
        self.last_solution = None

    def append_points(self, spec: PointRepairSpec) -> int:
        """Encode and append the constraint rows of ``spec``'s points.

        The chunk stream yields bounded CSR row blocks which
        :meth:`~repro.lp.model.LPSession.append_rows` ingests one at a time,
        so no more than one chunk is ever in flight.  Returns the number of
        LP rows appended.  ``spec`` must contain only points *not*
        previously appended — the caller (the driver) slices its pool.
        Encoding and ingestion run in one ``repair.encode`` span, the
        Jacobian time of :class:`RepairTiming`.
        """
        if spec.input_dimension != self.ddnn.input_size:
            raise SpecificationError(
                f"specification points have dimension {spec.input_dimension}, "
                f"network expects {self.ddnn.input_size}"
            )
        with obs.span("repair.encode", points=spec.num_points):
            stream = JacobianChunkStream(
                self.ddnn,
                self.layer_index,
                spec,
                max_chunk_bytes=self.max_chunk_bytes,
            )
            rows = self.session.append_rows(stream)
        self.num_points += spec.num_points
        self.constraint_rows += rows
        return rows

    def solve(self) -> RepairResult:
        """Solve the accumulated LP.

        The result carries no ``timing``: the caller's span tree times the
        session (each backend solve is an ``lp.solve`` span).
        """
        solution = self.session.solve()
        self.last_solution = solution

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
                num_key_points=self.num_points,
                num_constraint_rows=self.constraint_rows,
                num_variables=self.session.num_variables,
                norm=self.norm,
            )
        delta = solution.value_of(self.delta_indices)
        return RepairResult(
            feasible=True,
            network=self.ddnn.with_parameter_delta(self.layer_index, delta),
            delta=delta,
            layer_index=self.layer_index,
            lp_status=solution.status,
            num_key_points=self.num_points,
            num_constraint_rows=self.constraint_rows,
            num_variables=self.session.num_variables,
            objective_value=solution.objective,
            norm=self.norm,
        )
