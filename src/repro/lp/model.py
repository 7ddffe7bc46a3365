"""The repair LP: one session holding variables, objective and rows.

:class:`LPSession` holds an LP's variables (box bounds and objective
coefficients) and its constraint rows, each row once, as raw CSR arrays
(``indptr``, ``indices``, ``data`` and the ``rhs``), and solves it by row
generation on one retained solver from :mod:`repro.lp.backends`, handing
the solver only the rows it does not hold yet.  The repair algorithms add
the ℓ1/ℓ∞ norm rows through :mod:`repro.lp.norms`, then stream the
``A_x (N(x) + J_x Δ) ≤ b_x`` rows in with :meth:`LPSession.append_rows`.

The LP, in the standard form :meth:`LPSession.standard_form` reports::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                lb <= x <= ub        (entries may be ±inf)
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


def _solve_without_variables(b_ub: np.ndarray) -> LPSolution:
    """An LP with no variables: every row reads ``0 ≤ b_ub``."""
    if np.any(b_ub < 0):
        return LPSolution(LPStatus.INFEASIBLE, message="empty model with an unsatisfiable row")
    return LPSolution(LPStatus.OPTIMAL, np.zeros(0), 0.0, "empty model")


class LPSession:
    """An LP solved by row generation on one retained solver.

    A CEGIS repair driver solves the *same* LP round after round, each time
    with a few more constraint rows (every round's LP is a superset of the
    last).  A session holds every row once, as raw CSR arrays, and keeps
    one solver instance alive, so a re-solve hands the solver only the rows
    it does not hold (for HiGHS: an ``addRows`` and a warm re-run).

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
        # Every row once, in row order, as canonical CSR (sorted, distinct
        # column indices per row) and its rhs.
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.zeros(0, dtype=np.int32)
        self._data = np.zeros(0)
        self._rhs = np.zeros(0)
        # Rows in the solver's model, in its row order: held rows as added,
        # pending rows as admitted.  The solver holds the first ``_held`` of
        # them (``None``: no model, the next solve loads one cold).
        self._in_solver = np.zeros(0, dtype=np.intp)
        self._held: int | None = None
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
        return int(self._rhs.size)

    def add_variables(
        self,
        count: int,
        *,
        lower: float = -np.inf,
        upper: float = np.inf,
        cost: float = 0.0,
    ) -> np.ndarray:
        """Add ``count`` variables with one bound pair and objective coefficient.

        Returns their indices.  Rows already held do not reference the new
        variables; once the session has solved, its variables are fixed.
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
        return np.arange(start, start + count, dtype=int)

    def _block(self, matrix, rhs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Check a dense or sparse row block over the leading variables.

        Returns its canonical CSR ``(indptr, indices, data, rhs)`` (int64,
        int32, float64, float64): a dense block's entries are the ones
        ``sp.csr_matrix`` keeps (``-0.0`` is zero), in row-major order.
        """
        if sp.issparse(matrix):
            matrix = sp.csr_matrix(matrix, dtype=np.float64)
            matrix.sum_duplicates()
            shape, indptr, indices, data = matrix.shape, matrix.indptr, matrix.indices, matrix.data
        else:
            dense = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
            if dense.ndim != 2:
                raise LPError("a constraint block must be two-dimensional")
            nonzero = dense != 0
            shape = dense.shape
            indptr = np.zeros(shape[0] + 1, dtype=np.int64)
            np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
            indices = np.nonzero(nonzero)[1]
            data = dense[nonzero]
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if rhs.ndim != 1 or rhs.shape[0] != shape[0]:
            raise LPError("constraint rhs length must match the number of rows")
        if shape[1] > self.num_variables:
            raise LPError("constraint references an unknown variable index")
        if not (np.isfinite(data).all() and np.isfinite(rhs).all()):
            # HiGHS would take a NaN coefficient without complaint.
            raise LPError("constraint coefficients and rhs must be finite")
        return indptr.astype(np.int64, copy=False), indices.astype(np.int32, copy=False), data, rhs

    def _extend(self, blocks: list) -> None:
        """Append checked ``(indptr, indices, data, rhs)`` blocks to the rows."""
        indptrs, offset = [self._indptr], self._indptr[-1]
        for indptr, _, _, _ in blocks:
            indptrs.append(indptr[1:] + offset)
            offset += indptr[-1]
        self._indptr = np.concatenate(indptrs)
        self._indices = np.concatenate([self._indices, *(block[1] for block in blocks)])
        self._data = np.concatenate([self._data, *(block[2] for block in blocks)])
        self._rhs = np.concatenate([self._rhs, *(block[3] for block in blocks)])

    def add_rows(self, matrix, rhs) -> None:
        """Add rows ``matrix @ x[:k] <= rhs`` that the solver always holds.

        ``matrix`` covers the leading ``k ≤ num_variables`` variables.
        """
        block = self._block(matrix, rhs)
        start = self.num_rows
        self._extend([block])
        self._in_solver = np.concatenate([self._in_solver, np.arange(start, self.num_rows)])

    def append_rows(self, stream) -> int:
        """Append pending rows from ``(matrix, rhs)`` blocks; return the row count.

        Each ``matrix`` covers the leading variables (the repair LPs' delta
        variables) and is taken in as it arrives, so only one dense block of
        the stream is in flight at a time.  This is the ingestion point for
        :class:`~repro.core.jacobian.JacobianChunkStream`.
        """
        blocks = [self._block(matrix, rhs) for matrix, rhs in stream]
        self._extend(blocks)
        return sum(int(block[3].size) for block in blocks)

    def _matrix(self) -> sp.csr_matrix:
        """All rows as one CSR matrix over the session's arrays."""
        shape = (self.num_rows, self.num_variables)
        return sp.csr_matrix((self._data, self._indices, self._indptr), shape=shape)

    def standard_form(self):
        """The full ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``, pending rows included.

        A view for tests and benchmarks; solving never builds it.  ``A_ub``
        is CSR with the rows in the order they were added; ``A_eq`` and
        ``b_eq`` are empty.
        """
        n = self.num_variables
        bounds = np.column_stack([self._lower, self._upper])
        return self._cost.copy(), self._matrix(), self._rhs, sp.csr_matrix((0, n)), np.zeros(0), bounds

    def solve(self) -> LPSolution:
        """Solve the current LP by row generation (see the class docstring).

        The returned solution is the last solve's, with ``iterations``
        summed over the solves this call made, ``warm_start_used`` from the
        first of them, and ``rows_admitted`` the rows the solver held at the
        end.
        """
        self._solved = True
        if self.num_variables == 0:
            return _solve_without_variables(self._rhs)
        # One CSR view per call for every admission matvec: scipy's CSR
        # product sums each row's entries in order, which fixes the ties.
        matrix = self._matrix()
        if self._values is None:
            self._admit(matrix, np.clip(0.0, self._lower, self._upper), SEED_ROWS)
        else:
            self._admit(matrix, self._values, ROWS_PER_RESOLVE)
        solutions = []
        while True:
            solution = _observed_solve(self._solver, self._resolve)
            solutions.append(solution)
            if solution.status is LPStatus.UNBOUNDED and self._in_solver.size < self.num_rows:
                self._admit(matrix, None, self.num_rows)
            elif not (
                solution.status.is_optimal
                and self._admit(matrix, solution.values, ROWS_PER_RESOLVE)
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

    def _resolve(self) -> LPSolution:
        """Hand the solver the admitted rows it does not hold, then solve.

        With no model, or when the solver rejects the new rows, every
        admitted row is loaded cold (a rejected load leaves no model).
        """
        rows, held, solver = self._in_solver, self._held, self._solver
        if held is None or (held < rows.size and not solver.add_rows(*self._gather(rows[held:]))):
            loaded = solver.load(self._cost, self._lower, self._upper, *self._gather(rows))
            self._held = rows.size if loaded else None
        else:
            self._held = rows.size
        return solver.solve()

    def _gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data, rhs)`` of ``rows``, in that order."""
        starts = self._indptr[rows]
        lengths = self._indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        positions = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return indptr, self._indices[positions], self._data[positions], self._rhs[rows]

    def _admit(self, matrix, values, limit: int) -> int:
        """Admit up to ``limit`` pending rows violated at ``values``.

        ``values=None`` admits every pending row.  Returns how many rows were
        admitted; they join the solver's model most violated first, ties
        broken by row index.
        """
        pending = np.ones(self.num_rows, dtype=bool)
        pending[self._in_solver] = False
        if values is None:
            chosen = np.flatnonzero(pending)
        else:
            violation = matrix @ values - self._rhs
            candidates = np.flatnonzero(pending & (violation > VIOLATION_TOLERANCE))
            order = np.argsort(-violation[candidates], kind="stable")
            chosen = candidates[order[:limit]]
        self._in_solver = np.concatenate([self._in_solver, chosen])
        return int(chosen.size)
