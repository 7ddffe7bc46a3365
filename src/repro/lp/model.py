"""The repair LP: one session holding variables, objective and rows.

:class:`LPSession` holds an LP's variables (box bounds and objective
coefficients) and its constraint rows, each row once, as full-width
``scipy.sparse`` CSR, and solves it by row generation on one retained
solver from :mod:`repro.lp.backends`.  The repair algorithms add the
ℓ1/ℓ∞ norm rows through :mod:`repro.lp.norms`, then stream the
``A_x (N(x) + J_x Δ) ≤ b_x`` rows in with :meth:`LPSession.append_rows`.

Standard form passed to the solver::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                lb <= x <= ub        (entries may be ±inf)

(The solver interface also takes an equality block ``A_eq @ x == b_eq``;
a session's is always empty.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.exceptions import LPError
from repro.lp.status import LPStatus

#: Pending rows an :class:`LPSession`'s first solve admits: the ones most
#: violated at the origin clipped to the variable bounds.
SEED_ROWS = 300
#: Most pending rows an :class:`LPSession` admits before each re-solve.
ROWS_PER_RESOLVE = 500
#: A pending row is violated when ``A_i x - b_i`` exceeds this — HiGHS's
#: primal feasibility tolerance, so an admitted row is one the solver can
#: see as violated.
VIOLATION_TOLERANCE = 1e-7


def _observed_solve(solver, solve_callable):
    """Run one solve in an ``lp.solve`` span, mirroring it into the metrics.

    The span is what a repair's ``lp`` time sums; with the metrics registry
    on, the solve-time histogram reads its wall and the solve/iteration
    counters the finished solution.  Telemetry never influences what the
    solver returns.
    """
    if not obs.enabled():
        with obs.span("lp.solve", backend=solver.name):
            return solve_callable()
    with obs.timed("lp.solve", backend=solver.name) as span:
        solution = solve_callable()
    obs.histogram(
        "repro_lp_solve_seconds",
        "Wall-clock seconds per LP solve, by backend.",
        labels=("backend",),
    ).observe(span.wall_seconds, backend=solver.name)
    obs.counter(
        "repro_lp_solves_total",
        "LP solves by backend, outcome, and warm-start use.",
        labels=("backend", "status", "warm"),
    ).inc(
        backend=solver.name,
        status=solution.status.value,
        warm="true" if solution.warm_start_used else "false",
    )
    if solution.iterations:
        obs.counter(
            "repro_lp_iterations_total",
            "Simplex/IPM iterations spent, by backend.",
            labels=("backend",),
        ).inc(solution.iterations, backend=solver.name)
    return solution


@dataclass
class LPSolution:
    """Result of an LP solve.

    Attributes
    ----------
    status:
        Outcome of the solve.
    values:
        Dense variable assignment (``None`` unless ``status.is_optimal``).
    objective:
        Objective value at ``values`` (``None`` unless optimal).
    message:
        Solver diagnostic text.
    iterations:
        Solver iteration count, when the solver reports one.
    warm_start_used:
        Whether the solve started from retained solver state: true for
        every re-solve of an :class:`LPSession`'s retained HiGHS model,
        false for a cold solve.
    rows_admitted:
        Constraint rows in the solver's model after an
        :meth:`LPSession.solve`: only the rows row generation admitted.
    """

    status: LPStatus
    values: np.ndarray | None = None
    objective: float | None = None
    message: str = ""
    iterations: int | None = None
    warm_start_used: bool = False
    rows_admitted: int = 0

    def value_of(self, indices) -> np.ndarray:
        """Extract the assignment of a block of variables by index array."""
        if self.values is None:
            raise LPError("solution has no variable values (status: %s)" % self.status)
        return self.values[np.asarray(indices, dtype=int)]


def _widen(matrix: sp.csr_matrix, num_variables: int) -> sp.csr_matrix:
    """``matrix`` over the leading columns, as a CSR over ``num_variables``.

    The same ``data``/``indices``/``indptr`` with a wider shape: the
    columns a block touches keep their indices, so no entry moves.
    """
    return sp.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr),
        shape=(matrix.shape[0], num_variables),
    )


def _solve_without_variables(b_ub: np.ndarray) -> LPSolution:
    """An LP with no variables: every row reads ``0 ≤ b_ub``."""
    if np.any(b_ub < 0):
        return LPSolution(LPStatus.INFEASIBLE, message="empty model with an unsatisfiable row")
    return LPSolution(LPStatus.OPTIMAL, np.zeros(0), 0.0, "empty model")


class LPSession:
    """An LP solved by row generation on one retained solver.

    A CEGIS repair driver solves the *same* LP round after round, each time
    with a few more constraint rows (every round's LP is a superset of the
    last).  A session holds every row once, as full-width CSR, and keeps
    one solver instance alive, so a re-solve hands the solver only the rows
    it has not seen (for the HiGHS solver: an ``addRows`` and a warm re-run
    from the basis it holds).

    Variables come first (:meth:`add_variables`, each with its bounds and
    objective coefficient) and are fixed once the session has solved.
    Rows come in two kinds.  Rows added with :meth:`add_rows` (the repair
    LPs' norm rows) are always in the solver's model.  Rows appended with
    :meth:`append_rows` stay *pending* until the current solution violates
    them by more than :data:`VIOLATION_TOLERANCE`: :meth:`solve` admits up
    to :data:`SEED_ROWS` pending rows violated at the origin (clipped to
    the bounds), or, once a solution exists, up to :data:`ROWS_PER_RESOLVE`
    rows violated at it, most violated first with ties broken by row index;
    it re-solves until no pending row is violated.  The admitted rows form
    a relaxation of the full LP, so an infeasible relaxation proves the
    full LP infeasible, and an optimum that violates no pending row is an
    optimum of the full LP.  An unbounded relaxation admits every pending
    row and re-solves.

    Contract: the objective equals a cold solve of :meth:`standard_form`
    within 1e-9 relative and the status is the same, but the vertex may
    differ — the repair LPs have many optima, and which one a warm re-solve
    reaches depends on the rows seen so far and the order they were
    appended in.  Admission is a deterministic function of the appended
    rows, so equal appends give byte-identical solutions.
    """

    def __init__(self) -> None:
        from repro.lp.backends import get_backend

        self._solver = get_backend()
        self._cost = np.zeros(0)
        self._lower = np.zeros(0)
        self._upper = np.zeros(0)
        # Full-width CSR row blocks and their rhs, in row order;
        # standard_form() stacks them into one block, so each row is held
        # once.
        self._rows: list[sp.csr_matrix] = []
        self._rhs: list[np.ndarray] = []
        # Rows in the solver's model, in its row order: held rows as added,
        # pending rows as admitted.
        self._in_solver = np.zeros(0, dtype=np.intp)
        self._solved = False
        # The last optimal solution, where the next solve looks for violations.
        self._values: np.ndarray | None = None

    @property
    def num_variables(self) -> int:
        """Number of variables added so far."""
        return int(self._cost.size)

    @property
    def num_rows(self) -> int:
        """Constraint rows held, pending rows included."""
        return sum(int(rhs.shape[0]) for rhs in self._rhs)

    def add_variables(
        self,
        count: int,
        *,
        lower: float = -np.inf,
        upper: float = np.inf,
        cost: float = 0.0,
    ) -> np.ndarray:
        """Add ``count`` variables with one bound pair and objective coefficient.

        Returns their indices.  The rows already held are widened by shape;
        once the session has solved, its variables are fixed.
        """
        if self._solved:
            raise LPError("a session's variables are fixed once it has solved")
        if count < 0:
            raise LPError("count must be non-negative")
        if lower > upper:
            raise LPError(f"variable lower bound {lower} exceeds upper bound {upper}")
        if not np.isfinite(cost):
            raise LPError(f"objective coefficient {cost} is not finite")
        start = self.num_variables
        self._cost = np.concatenate([self._cost, np.full(count, float(cost))])
        self._lower = np.concatenate([self._lower, np.full(count, float(lower))])
        self._upper = np.concatenate([self._upper, np.full(count, float(upper))])
        self._rows = [_widen(rows, self.num_variables) for rows in self._rows]
        return np.arange(start, start + count, dtype=int)

    def _block(self, matrix, rhs) -> tuple[sp.csr_matrix, np.ndarray]:
        """Check a row block over the leading variables; return it as full-width CSR.

        ``matrix`` may be dense or sparse; it comes back canonical, with
        ``rhs`` as a float64 vector.
        """
        matrix = sp.csr_matrix(matrix, dtype=np.float64)
        matrix.sum_duplicates()
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if rhs.ndim != 1 or rhs.shape[0] != matrix.shape[0]:
            raise LPError("constraint rhs length must match the number of rows")
        if matrix.shape[1] > self.num_variables:
            raise LPError("constraint references an unknown variable index")
        if not (np.isfinite(matrix.data).all() and np.isfinite(rhs).all()):
            # HiGHS would take a NaN coefficient without complaint.
            raise LPError("constraint coefficients and rhs must be finite")
        return _widen(matrix, self.num_variables), rhs

    def add_rows(self, matrix, rhs) -> None:
        """Add rows ``matrix @ x[:k] <= rhs`` that the solver always holds.

        ``matrix`` covers the leading ``k ≤ num_variables`` variables.
        """
        matrix, rhs = self._block(matrix, rhs)
        start = self.num_rows
        self._rows.append(matrix)
        self._rhs.append(rhs)
        self._in_solver = np.concatenate(
            [self._in_solver, np.arange(start, start + rhs.shape[0])]
        )

    def append_rows(self, stream) -> int:
        """Append pending rows from ``(matrix, rhs)`` blocks; return the row count.

        Each ``matrix`` covers the leading variables (the repair LPs' delta
        variables) and is taken in as it arrives, so only one block of the
        stream is in flight at a time.  This is the ingestion point for
        :class:`~repro.core.jacobian.JacobianChunkStream`.
        """
        rows = 0
        for matrix, rhs in stream:
            matrix, rhs = self._block(matrix, rhs)
            self._rows.append(matrix)
            self._rhs.append(rhs)
            rows += rhs.shape[0]
        return rows

    def standard_form(self):
        """The full ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``, pending rows included.

        ``A_ub`` is CSR with the rows in the order they were added; ``A_eq``
        and ``b_eq`` are empty.  The stacked matrix replaces the blocks it
        was stacked from, so each row stays held once.
        """
        n = self.num_variables
        if len(self._rows) > 1:
            self._rows = [sp.vstack(self._rows).tocsr()]
            self._rhs = [np.concatenate(self._rhs)]
        if self._rows:
            a_ub, b_ub = self._rows[0], self._rhs[0]
        else:
            a_ub, b_ub = sp.csr_matrix((0, n)), np.zeros(0)
        bounds = np.column_stack([self._lower, self._upper])
        return self._cost.copy(), a_ub, b_ub, sp.csr_matrix((0, n)), np.zeros(0), bounds

    def solve(self) -> LPSolution:
        """Solve the current LP by row generation (see the class docstring).

        The returned solution is the last solve's, with ``iterations``
        summed over the solves this call made, ``warm_start_used`` from the
        first of them, and ``rows_admitted`` the rows the solver held at the
        end.
        """
        c, a_ub, b_ub, a_eq, b_eq, bounds = self.standard_form()
        self._solved = True
        if self.num_variables == 0:
            return _solve_without_variables(b_ub)
        if self._values is None:
            self._admit(a_ub, b_ub, np.clip(0.0, bounds[:, 0], bounds[:, 1]), SEED_ROWS)
        else:
            self._admit(a_ub, b_ub, self._values, ROWS_PER_RESOLVE)
        solutions = []
        while True:
            rows = self._in_solver
            form = (c, a_ub[rows], b_ub[rows], a_eq, b_eq, bounds)
            solution = _observed_solve(self._solver, lambda: self._solver.solve(*form))
            solutions.append(solution)
            if solution.status is LPStatus.UNBOUNDED and rows.size < b_ub.shape[0]:
                self._admit(a_ub, b_ub, None, b_ub.shape[0])
            elif not (
                solution.status.is_optimal
                and self._admit(a_ub, b_ub, solution.values, ROWS_PER_RESOLVE)
            ):
                break
        self._values = solution.values
        iterations = [s.iterations for s in solutions if s.iterations is not None]
        return replace(
            solution,
            iterations=sum(iterations) if iterations else None,
            warm_start_used=solutions[0].warm_start_used,
            rows_admitted=int(self._in_solver.size),
        )

    def _admit(self, a_ub, b_ub, values, limit: int) -> int:
        """Admit up to ``limit`` pending rows violated at ``values``.

        ``values=None`` admits every pending row.  Returns how many rows were
        admitted; they join the solver's model most violated first, ties
        broken by row index.
        """
        pending = np.ones(b_ub.shape[0], dtype=bool)
        pending[self._in_solver] = False
        if values is None:
            chosen = np.flatnonzero(pending)
        else:
            violation = a_ub @ values - b_ub
            candidates = np.flatnonzero(pending & (violation > VIOLATION_TOLERANCE))
            order = np.argsort(-violation[candidates], kind="stable")
            chosen = candidates[order[:limit]]
        self._in_solver = np.concatenate([self._in_solver, chosen])
        return int(chosen.size)
