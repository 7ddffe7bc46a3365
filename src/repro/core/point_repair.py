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
:class:`IncrementalPointRepairSession` holds the LP (delta variables plus
the norm objective); :meth:`~IncrementalPointRepairSession.append_points`
streams the constraint rows of a batch of points as bounded CSR blocks
(:class:`~repro.core.jacobian.JacobianChunkStream`, vectorized multi-point
Jacobians) into an :class:`~repro.lp.model.LPSession`, and
:meth:`~IncrementalPointRepairSession.solve` solves it.  :func:`point_repair`
is the one-shot case — one append, one solve — and the CEGIS driver keeps a
session alive across rounds, appending only each round's new points.
"""

from __future__ import annotations

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import JacobianChunkStream
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
    delta_bound: float | None = None,
    timing: RepairTiming | None = None,
    max_chunk_bytes: int | None = None,
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
    delta_bound:
        Optional box bound ``|Δ_i| ≤ delta_bound`` added to every delta
        variable; occasionally useful to keep very large repairs numerically
        tame.  ``None`` (the default, and the paper's setting) leaves the
        deltas free.
    timing:
        An existing :class:`RepairTiming` to accumulate into (used by the
        polytope repair algorithm, which has already spent time computing
        linear regions).
    max_chunk_bytes:
        Per-chunk budget of the constraint-row stream (``None`` =
        :data:`~repro.core.jacobian.DEFAULT_CHUNK_BYTES`).  Any budget
        assembles the same standard form byte for byte; a small one bounds
        the dense intermediate of very large specifications.
    """
    session = IncrementalPointRepairSession(
        network,
        layer_index,
        norm=norm,
        delta_bound=delta_bound,
        max_chunk_bytes=max_chunk_bytes,
    )
    session.append_points(spec)
    result = session.solve(final=True)
    if timing is not None:
        timing.add(result.timing)
        result.timing = timing
    return result


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
    :class:`~repro.lp.model.LPSession`.

    The norm rows go in first and are always in the solver's model; the
    constraint rows follow in append order and enter it by row generation
    (see :class:`~repro.lp.model.LPSession`).  A session fed the points in
    any number of appends builds the same LP, row for row, as one fed them
    all at once, and the same appends give the same bytes.  Solving between
    appends changes which rows were admitted and where the warm re-solves
    start, so a driver's final delta matches a one-shot :func:`point_repair`
    of the final pool in verdict and objective (1e-9 relative), not in
    bytes.

    The session encodes against a private copy of the base network and never
    mutates it; each feasible :meth:`solve` returns a *fresh* repaired copy.
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
        self.ddnn = _working_copy(network)
        self.layer_index = self.ddnn._check_repairable(layer_index)
        self.norm = norm
        self.max_chunk_bytes = max_chunk_bytes
        num_parameters = self.ddnn.value.layers[self.layer_index].num_parameters
        self.model = LPModel()
        bound = np.inf if delta_bound is None else float(delta_bound)
        self.delta_indices = self.model.add_variables(
            num_parameters, "delta", lower=-bound, upper=bound
        )
        add_norm_objective(self.model, self.delta_indices, norm)
        self.session = self.model.incremental_session()
        self.num_points = 0
        self.constraint_rows = 0
        self.last_solution = None
        self._pending_timing = RepairTiming()

    def append_points(self, spec: PointRepairSpec) -> int:
        """Encode and append the constraint rows of ``spec``'s points.

        The chunk stream yields bounded CSR row blocks which
        :meth:`~repro.lp.model.LPSession.append_rows` ingests one at a time,
        so no more than one chunk is ever in flight.  Returns the number of
        LP rows appended.  ``spec`` must contain only points *not*
        previously appended — the caller (the driver) slices its pool.
        """
        if spec.input_dimension != self.ddnn.input_size:
            raise SpecificationError(
                f"specification points have dimension {spec.input_dimension}, "
                f"network expects {self.ddnn.input_size}"
            )
        watch = Stopwatch()
        with watch.phase("jacobian"):
            stream = JacobianChunkStream(
                self.ddnn,
                self.layer_index,
                spec,
                max_chunk_bytes=self.max_chunk_bytes,
            )
            rows = self.session.append_rows(
                stream=((matrix, rhs, self.delta_indices) for matrix, rhs in stream)
            )
        self.num_points += spec.num_points
        self.constraint_rows += rows
        self._pending_timing.jacobian_seconds += watch.total("jacobian")
        self._pending_timing.other_seconds += watch.other()
        return rows

    def solve(self, *, final: bool = False) -> RepairResult:
        """Solve the accumulated LP.

        ``final=True`` declares this the session's last solve: a feasible
        delta is applied to the working copy itself, which becomes the
        repaired network, instead of to a fresh copy.  The one-shot
        :func:`point_repair` uses it; the session must not be used after.
        """
        watch = Stopwatch()
        with watch.phase("lp"):
            solution = self.session.solve()
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
        delta = solution.value_of(self.delta_indices)
        repaired = self.ddnn if final else self.ddnn.copy()
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
