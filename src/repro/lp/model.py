"""LP modelling layer.

:class:`LPModel` collects variables, linear constraints, bounds, and a linear
objective, and hands a standard-form problem to the solver in
:mod:`repro.lp.backends`.  The repair algorithms use it through the helpers
in :mod:`repro.lp.norms`, which add the auxiliary variables needed for
ℓ1/ℓ∞ norm minimization.

Standard form passed to the solver::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub        (entries may be ±inf)

Constraint blocks are stored narrow — each block keeps only the columns it
actually touches — and :meth:`LPModel.standard_form` assembles them into
``scipy.sparse`` CSR matrices directly, never materializing full-width
dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.exceptions import LPError
from repro.lp.expression import LinearExpression
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

    The shared wrapper for :meth:`LPModel.solve` and :meth:`LPSession.solve`.
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
    """Result of solving an :class:`LPModel`.

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
        Constraint rows in the solver's model after the solve.  A cold
        :meth:`LPModel.solve` holds every row; an :class:`LPSession` holds
        only the rows row generation admitted.
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


@dataclass
class _ConstraintBlock:
    """A block of constraints ``matrix @ x[columns] (sense) rhs``.

    ``matrix`` is either a dense float64 array or a canonical CSR matrix;
    every consumer branches on :func:`scipy.sparse.issparse`.
    """

    matrix: np.ndarray | sp.csr_matrix
    rhs: np.ndarray
    columns: np.ndarray
    equality: bool = False


def _coerce_block_matrix(matrix):
    """Normalize a block matrix: canonical float64 CSR, or dense 2-D array.

    Sparse inputs stay sparse — densifying here would defeat the streamed
    row pipeline, whose whole point is that full-width dense blocks never
    exist.  ``sum_duplicates``/``sort_indices`` pin the canonical form so
    equality of two CSR matrices reduces to equality of their three arrays.
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr().astype(np.float64, copy=False)
        csr.sum_duplicates()
        csr.sort_indices()
        return csr
    return np.atleast_2d(np.asarray(matrix, dtype=np.float64))


@dataclass
class LPModel:
    """An LP under construction.

    Variables are created with :meth:`add_variable` / :meth:`add_variables`
    and identified by integer index.  Constraints may be added either one at
    a time from :class:`LinearExpression` objects, or as dense blocks
    (matrix form), which is how the repair algorithms add the
    ``A_x (N(x) + J_x Δ) ≤ b_x`` rows.
    """

    _num_variables: int = 0
    _names: list[str] = field(default_factory=list)
    _lower: list[float] = field(default_factory=list)
    _upper: list[float] = field(default_factory=list)
    _objective: dict[int, float] = field(default_factory=dict)
    _blocks: list[_ConstraintBlock] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of variables added so far."""
        return self._num_variables

    def add_variable(
        self,
        name: str | None = None,
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> int:
        """Add one variable and return its index."""
        if lower > upper:
            raise LPError(f"variable lower bound {lower} exceeds upper bound {upper}")
        index = self._num_variables
        self._names.append(name if name is not None else f"x{index}")
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._num_variables += 1
        return index

    def add_variables(
        self,
        count: int,
        name: str | None = None,
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> np.ndarray:
        """Add ``count`` variables and return their indices as an array.

        The whole block is appended in one vectorized extend — repair LPs
        create tens of thousands of delta variables at once, so this must
        not fall back to per-variable :meth:`add_variable` calls.
        """
        if count < 0:
            raise LPError("count must be non-negative")
        if lower > upper:
            raise LPError(f"variable lower bound {lower} exceeds upper bound {upper}")
        base = name if name is not None else "x"
        start = self._num_variables
        self._names.extend(f"{base}[{offset}]" for offset in range(count))
        self._lower.extend([float(lower)] * count)
        self._upper.extend([float(upper)] * count)
        self._num_variables += count
        return np.arange(start, start + count, dtype=int)

    def variable_name(self, index: int) -> str:
        """Name of variable ``index``."""
        return self._names[index]

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_leq_block(self, matrix, rhs, columns=None) -> None:
        """Add constraints ``matrix @ x[columns] <= rhs``.

        ``columns`` defaults to all variables currently in the model, in
        which case ``matrix`` must have ``num_variables`` columns.  The
        block matrix may be a ``scipy.sparse`` matrix; it is stored as
        canonical CSR without ever being densified, which is what the
        chunked Jacobian stream relies on to keep blocks out of core.
        """
        matrix = _coerce_block_matrix(matrix)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if columns is None:
            columns = np.arange(self._num_variables)
        columns = np.asarray(columns, dtype=int)
        self._check_block(matrix, rhs, columns)
        self._blocks.append(_ConstraintBlock(matrix, rhs, columns, equality=False))

    def add_eq_block(self, matrix, rhs, columns=None) -> None:
        """Add constraints ``matrix @ x[columns] == rhs``."""
        matrix = _coerce_block_matrix(matrix)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if columns is None:
            columns = np.arange(self._num_variables)
        columns = np.asarray(columns, dtype=int)
        self._check_block(matrix, rhs, columns)
        self._blocks.append(_ConstraintBlock(matrix, rhs, columns, equality=True))

    def add_leq(self, expression: LinearExpression, rhs: float) -> None:
        """Add a single constraint ``expression <= rhs``."""
        row, columns = self._expression_row(expression)
        self.add_leq_block(row[None, :], [rhs - expression.constant], columns)

    def add_geq(self, expression: LinearExpression, rhs: float) -> None:
        """Add a single constraint ``expression >= rhs``."""
        self.add_leq(expression * -1.0, -float(rhs))

    def add_eq(self, expression: LinearExpression, rhs: float) -> None:
        """Add a single constraint ``expression == rhs``."""
        row, columns = self._expression_row(expression)
        self.add_eq_block(row[None, :], [rhs - expression.constant], columns)

    def _expression_row(self, expression: LinearExpression):
        coefficients = expression.coefficients
        if not coefficients:
            raise LPError("constraint expression has no variables")
        columns = np.array(sorted(coefficients), dtype=int)
        row = np.array([coefficients[index] for index in columns], dtype=np.float64)
        return row, columns

    def _check_block(self, matrix: np.ndarray, rhs: np.ndarray, columns: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise LPError("constraint matrix must be 2-D")
        if rhs.ndim != 1 or rhs.shape[0] != matrix.shape[0]:
            raise LPError("constraint rhs length must match the number of rows")
        if columns.ndim != 1 or columns.shape[0] != matrix.shape[1]:
            raise LPError("columns length must match the number of matrix columns")
        if columns.size and (columns.min() < 0 or columns.max() >= self._num_variables):
            raise LPError("constraint references an unknown variable index")
        if np.unique(columns).size != columns.size:
            # Duplicates would be silently summed by the CSR assembly.
            raise LPError("constraint block columns must be unique")
        entries = matrix.data if sp.issparse(matrix) else matrix
        if not (np.isfinite(entries).all() and np.isfinite(rhs).all()):
            # HiGHS would take a NaN coefficient without complaint.
            raise LPError("constraint coefficients and rhs must be finite")

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def set_objective_coefficient(self, index: int, coefficient: float) -> None:
        """Set the objective coefficient of variable ``index``."""
        if not 0 <= index < self._num_variables:
            raise LPError(f"unknown variable index {index}")
        if not np.isfinite(coefficient):
            raise LPError(f"objective coefficient {coefficient} is not finite")
        if coefficient == 0.0:
            self._objective.pop(index, None)
        else:
            self._objective[index] = float(coefficient)

    def add_objective_term(self, index: int, coefficient: float) -> None:
        """Add ``coefficient`` to the objective coefficient of ``index``."""
        current = self._objective.get(index, 0.0)
        self.set_objective_coefficient(index, current + coefficient)

    def set_objective(self, expression: LinearExpression) -> None:
        """Replace the objective with the given linear expression."""
        self._objective = {}
        for index, coefficient in expression.coefficients.items():
            self.set_objective_coefficient(index, coefficient)

    # ------------------------------------------------------------------
    # Standard form assembly & solving
    # ------------------------------------------------------------------
    def standard_form(self):
        """Assemble ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``.

        The constraint matrices are ``scipy.sparse`` CSR matrices assembled
        directly from the narrow constraint blocks; ``c``, the right-hand
        sides and ``bounds`` are dense.
        """
        n = self._num_variables
        c = np.zeros(n)
        for index, coefficient in self._objective.items():
            c[index] = coefficient
        bounds = np.column_stack([self._lower, self._upper]) if n else np.zeros((0, 2))
        a_ub, b_ub = self._assemble(equality=False)
        a_eq, b_eq = self._assemble(equality=True)
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    def _assemble(self, equality: bool) -> tuple[sp.csr_matrix, np.ndarray]:
        """CSR matrix and rhs of all blocks with the given sense."""
        n = self._num_variables
        data_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        rhs_parts: list[np.ndarray] = []
        row_offset = 0
        for block in self._blocks:
            if block.equality is not equality:
                continue
            if sp.issparse(block.matrix):
                # Canonical CSR → COO keeps entries in row-major order,
                # exactly the order np.nonzero produces on the dense
                # equivalent — so sparse and dense blocks assemble the
                # same final CSR arrays byte for byte.
                coo = block.matrix.tocoo()
                data_parts.append(coo.data)
                row_parts.append(row_offset + coo.row)
                col_parts.append(block.columns[coo.col])
            else:
                local_rows, local_cols = np.nonzero(block.matrix)
                data_parts.append(block.matrix[local_rows, local_cols])
                row_parts.append(row_offset + local_rows)
                col_parts.append(block.columns[local_cols])
            rhs_parts.append(block.rhs)
            row_offset += block.matrix.shape[0]
        rhs = np.concatenate(rhs_parts) if rhs_parts else np.zeros(0)
        if not data_parts:
            return sp.csr_matrix((row_offset, n)), rhs
        matrix = sp.coo_matrix(
            (
                np.concatenate(data_parts),
                (np.concatenate(row_parts), np.concatenate(col_parts)),
            ),
            shape=(row_offset, n),
        )
        return matrix.tocsr(), rhs

    @property
    def num_constraints(self) -> int:
        """Total number of constraint rows added so far."""
        return sum(block.matrix.shape[0] for block in self._blocks)

    def solve(self) -> LPSolution:
        """Solve the model: one cold HiGHS solve of every row of its CSR form."""
        from repro.lp.backends import get_backend

        form = self.standard_form()
        if self._num_variables == 0:
            return _solve_without_variables(form[2], form[4])
        solver = get_backend()
        solution = _observed_solve(solver, lambda: solver.solve(*form))
        return replace(solution, rows_admitted=self.num_constraints)

    def incremental_session(self) -> "LPSession":
        """Open an :class:`LPSession` over this model's current blocks.

        See :class:`LPSession` for the row-generation contract.
        """
        return LPSession(self)


def _solve_without_variables(b_ub: np.ndarray, b_eq: np.ndarray) -> LPSolution:
    """An LP with no variables: every row reads ``0 ≤ b_ub`` or ``0 = b_eq``."""
    if np.any(b_ub < 0) or np.any(b_eq != 0):
        return LPSolution(LPStatus.INFEASIBLE, message="empty model with an unsatisfiable row")
    return LPSolution(LPStatus.OPTIMAL, np.zeros(0), 0.0, "empty model")


def _widen_block(block: _ConstraintBlock, num_variables: int) -> sp.csr_matrix:
    """One narrow constraint block as a full-width CSR matrix."""
    if sp.issparse(block.matrix):
        matrix = block.matrix
        if matrix.shape[1] == num_variables and np.array_equal(
            block.columns, np.arange(num_variables)
        ):
            # Identity column map (the repair LPs' delta-variable prefix):
            # the narrow CSR *is* the widened CSR.  Sharing its arrays keeps
            # the streamed path zero-copy per appended chunk.
            return sp.csr_matrix(
                (matrix.data, matrix.indices, matrix.indptr),
                shape=(matrix.shape[0], num_variables),
            )
        coo = matrix.tocoo()
        return sp.coo_matrix(
            (coo.data, (coo.row, block.columns[coo.col])),
            shape=(matrix.shape[0], num_variables),
        ).tocsr()
    local_rows, local_cols = np.nonzero(block.matrix)
    return sp.coo_matrix(
        (block.matrix[local_rows, local_cols], (local_rows, block.columns[local_cols])),
        shape=(block.matrix.shape[0], num_variables),
    ).tocsr()


class LPSession:
    """An incremental, row-generating solve session over a growing :class:`LPModel`.

    A CEGIS repair driver solves the *same* LP round after round, each time
    with a few more constraint rows (every round's LP is a superset of the
    last).  A session keeps the widened per-block matrices, so
    :meth:`append_rows` converts only the blocks added to the model since
    the previous call, and it keeps one solver instance alive, so a re-solve
    hands the solver only the rows it has not seen (for the HiGHS solver: an
    ``addRows`` and a warm re-run from the basis it holds).

    The solver never sees every row.  The inequality rows the model had
    when the session opened (the repair LPs' norm rows) and every equality
    row are always in the solver's model; an inequality row appended later
    stays *pending* in the session's CSR parts until the current solution
    violates it by more than :data:`VIOLATION_TOLERANCE`.  :meth:`solve`
    admits up to :data:`SEED_ROWS` pending rows violated at the origin
    (clipped to the bounds), or, once a solution exists, up to
    :data:`ROWS_PER_RESOLVE` rows violated at it, most violated first with
    ties broken by row index; it re-solves until no pending row is
    violated.  The admitted rows form a relaxation of the full LP, so an
    infeasible relaxation proves the full LP infeasible, and an optimum
    that violates no pending row is an optimum of the full LP.  An
    unbounded relaxation admits every pending row and re-solves.

    Contract: the objective equals a cold :meth:`LPModel.solve` within
    1e-9 relative and the status is the same, but the vertex may differ —
    the repair LPs have many optima, and which one a warm re-solve reaches
    depends on the rows seen so far and the order they were appended in.
    Admission is a deterministic function of the appended rows, so equal
    appends give byte-identical solutions.

    Sessions do not support adding variables after creation
    (:meth:`append_rows` raises); the repair LPs fix their delta and
    auxiliary variables up front.
    """

    def __init__(self, model: LPModel) -> None:
        from repro.lp.backends import get_backend

        self.model = model
        self._solver = get_backend()
        self._num_variables = model.num_variables
        # Widened per-block parts, in row order.
        self._ub_parts: list = []
        self._ub_rhs: list[np.ndarray] = []
        self._eq_parts: list = []
        self._eq_rhs: list[np.ndarray] = []
        self.rows_appended = 0
        self._cached_matrices: tuple | None = None
        self._consume(model._blocks)
        self._consumed = len(model._blocks)
        # Inequality rows in the solver's model, in its row order: the rows
        # present at creation, then admitted pending rows as admitted.
        self._in_solver = np.arange(sum(rhs.shape[0] for rhs in self._ub_rhs))
        # The last optimal solution, where the next solve looks for violations.
        self._values: np.ndarray | None = None

    def _consume(self, blocks: list[_ConstraintBlock]) -> int:
        rows = 0
        for block in blocks:
            widened = _widen_block(block, self._num_variables)
            if block.equality:
                self._eq_parts.append(widened)
                self._eq_rhs.append(block.rhs)
            else:
                self._ub_parts.append(widened)
                self._ub_rhs.append(block.rhs)
            rows += block.matrix.shape[0]
        return rows

    def append_rows(self, stream=None) -> int:
        """Widen the blocks added to the model since the last call.

        With ``stream`` given — an iterator of ``(matrix, rhs, columns)``
        triples, where ``matrix`` may be dense or CSR — each item is added
        to the model and consumed into the session *immediately*, so only
        one chunk of the stream is in flight at a time.  This is the
        ingestion point for :class:`~repro.core.jacobian.JacobianChunkStream`:
        the model still records every block (cold re-assembly of the same
        model builds the same rows in the same order), but no dense
        full-width intermediate ever exists.

        Returns the number of constraint rows appended.  Raises
        :class:`LPError` if variables were added after session creation —
        widened matrices from earlier rounds would be too narrow.
        """
        if self.model.num_variables != self._num_variables:
            raise LPError(
                "the model grew from "
                f"{self._num_variables} to {self.model.num_variables} variables; "
                "incremental sessions only support appending constraint rows"
            )
        rows = self._consume(self.model._blocks[self._consumed :])
        self._consumed = len(self.model._blocks)
        if stream is not None:
            for matrix, rhs, columns in stream:
                self.model.add_leq_block(matrix, rhs, columns)
                if self.model.num_variables != self._num_variables:
                    raise LPError(
                        "the model grew variables while a row stream was "
                        "being consumed; incremental sessions only support "
                        "appending constraint rows"
                    )
                rows += self._consume(self.model._blocks[self._consumed :])
                self._consumed = len(self.model._blocks)
        if rows:
            self.rows_appended += rows
            self._cached_matrices = None
        return rows

    @property
    def num_rows(self) -> int:
        """Constraint rows currently assembled, pending rows included."""
        return sum(int(rhs.shape[0]) for rhs in (*self._ub_rhs, *self._eq_rhs))

    def _stack(self, parts: list, rhs_parts: list[np.ndarray]):
        n = self._num_variables
        if not parts:
            return sp.csr_matrix((0, n)), np.zeros(0)
        matrix = sp.vstack(parts) if len(parts) > 1 else parts[0]
        return matrix.tocsr(), np.concatenate(rhs_parts)

    def standard_form(self):
        """The full ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``, pending rows included.

        The rows are in append order, the same as :meth:`LPModel.standard_form`
        of the session's model.  The constraint matrices are cached between
        :meth:`append_rows` calls; ``c`` and ``bounds`` are rebuilt from the
        model each time (both are O(variables) and objective coefficients may
        legally change between solves).
        """
        if self.model.num_variables != self._num_variables:
            raise LPError(
                "the model grew variables after session creation; "
                "incremental sessions only support appending constraint rows"
            )
        if self._cached_matrices is None:
            self._cached_matrices = (
                self._stack(self._ub_parts, self._ub_rhs),
                self._stack(self._eq_parts, self._eq_rhs),
            )
        (a_ub, b_ub), (a_eq, b_eq) = self._cached_matrices
        n = self._num_variables
        c = np.zeros(n)
        for index, coefficient in self.model._objective.items():
            c[index] = coefficient
        bounds = (
            np.column_stack([self.model._lower[:n], self.model._upper[:n]])
            if n
            else np.zeros((0, 2))
        )
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    def solve(self) -> LPSolution:
        """Solve the current LP by row generation (see the class docstring).

        The returned solution is the last solve's, with ``iterations``
        summed over the solves this call made, ``warm_start_used`` from the
        first of them, and ``rows_admitted`` the rows the solver held at the
        end.
        """
        c, a_ub, b_ub, a_eq, b_eq, bounds = self.standard_form()
        if self._num_variables == 0:
            return _solve_without_variables(b_ub, b_eq)
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
            rows_admitted=int(self._in_solver.size + b_eq.shape[0]),
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
