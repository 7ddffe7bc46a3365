"""A from-scratch dense two-phase simplex LP solver: the test-suite's reference.

The library solves every LP with scipy/HiGHS.  This independent, deliberately
simple solver is what the tests compare it against: substituted for the
library's solver through ``repro.lp.backends._BACKENDS`` behind the
standard-form adapter of :mod:`tests.standard_form` (see
``tests.conftest.lp_solver``) or called directly on a standard form.  It
converts a general standard form (what
:meth:`repro.lp.model.LPSession.standard_form` returns, or a hand-written
form with equality rows) into equational form (all variables non-negative, equality constraints only)
and runs a textbook two-phase primal simplex with Bland's anti-cycling rule.
It is meant for the small LPs of the test-suite.

Conversion to equational form
-----------------------------
Every free variable ``x`` is split into ``x = x⁺ - x⁻`` with
``x⁺, x⁻ ≥ 0``.  Finite bounds become extra ``≤`` rows, and every ``≤`` row
receives a slack variable.  Phase 1 minimizes the sum of artificial
variables; if that optimum is positive the problem is infeasible.  Phase 2
minimizes the real objective starting from the Phase-1 basis.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.lp.model import LPSolution
from repro.lp.status import LPStatus

_TOLERANCE = 1e-9


class _EquationalProblem:
    """Equational-form data plus the mapping back to original variables."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, recover) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.recover = recover


def _to_equational(c, a_ub, b_ub, a_eq, b_eq, bounds) -> _EquationalProblem:
    """Convert a general standard form into ``min c@y, A y = b, y >= 0``."""
    n = c.shape[0]
    lower = bounds[:, 0].copy()
    upper = bounds[:, 1].copy()

    # Variable substitution: for each original variable produce columns in the
    # non-negative space.  We use the generic split x = x+ - x- and then add
    # bound rows for finite bounds; this is less economical than shifting but
    # much simpler to reason about and adequate for the solver's scope.
    plus = np.arange(n)
    minus = np.arange(n, 2 * n)
    width = 2 * n

    def expand(matrix: np.ndarray) -> np.ndarray:
        expanded = np.zeros((matrix.shape[0], width))
        expanded[:, plus] = matrix
        expanded[:, minus] = -matrix
        return expanded

    ub_rows = [expand(a_ub)] if a_ub.size else []
    ub_rhs = [b_ub] if a_ub.size else []

    # Finite bounds become inequality rows on the split variables.
    finite_upper = np.where(np.isfinite(upper))[0]
    if finite_upper.size:
        rows = np.zeros((finite_upper.size, width))
        rows[np.arange(finite_upper.size), plus[finite_upper]] = 1.0
        rows[np.arange(finite_upper.size), minus[finite_upper]] = -1.0
        ub_rows.append(rows)
        ub_rhs.append(upper[finite_upper])
    finite_lower = np.where(np.isfinite(lower))[0]
    if finite_lower.size:
        rows = np.zeros((finite_lower.size, width))
        rows[np.arange(finite_lower.size), plus[finite_lower]] = -1.0
        rows[np.arange(finite_lower.size), minus[finite_lower]] = 1.0
        ub_rows.append(rows)
        ub_rhs.append(-lower[finite_lower])

    a_ub_full = np.vstack(ub_rows) if ub_rows else np.zeros((0, width))
    b_ub_full = np.concatenate(ub_rhs) if ub_rhs else np.zeros(0)
    a_eq_full = expand(a_eq) if a_eq.size else np.zeros((0, width))
    b_eq_full = b_eq if a_eq.size else np.zeros(0)

    # Add slack variables for the inequality rows.
    num_slack = a_ub_full.shape[0]
    total = width + num_slack
    a_rows = []
    b_values = []
    if num_slack:
        block = np.hstack([a_ub_full, np.eye(num_slack)])
        a_rows.append(block)
        b_values.append(b_ub_full)
    if a_eq_full.shape[0]:
        block = np.hstack([a_eq_full, np.zeros((a_eq_full.shape[0], num_slack))])
        a_rows.append(block)
        b_values.append(b_eq_full)

    a_full = np.vstack(a_rows) if a_rows else np.zeros((0, total))
    b_full = np.concatenate(b_values) if b_values else np.zeros(0)

    c_full = np.zeros(total)
    c_full[plus] = c
    c_full[minus] = -c

    def recover(y: np.ndarray) -> np.ndarray:
        return y[plus] - y[minus]

    return _EquationalProblem(a_full, b_full, c_full, recover)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the simplex tableau on (row, col) in place."""
    tableau[row] /= tableau[row, col]
    for other in range(tableau.shape[0]):
        if other != row and abs(tableau[other, col]) > 0:
            tableau[other] -= tableau[other, col] * tableau[row]
    basis[row] = col


def _simplex_iterate(
    tableau: np.ndarray, basis: np.ndarray, num_cols: int, max_iter: int
) -> tuple[str, int]:
    """Run primal simplex iterations on the tableau.

    The last row of the tableau holds the (negated) reduced costs and the
    last column holds the right-hand side.  Returns ``(outcome, iterations)``
    where outcome is ``"optimal"``, ``"unbounded"``, or ``"iteration_limit"``.
    """
    num_rows = tableau.shape[0] - 1
    for iteration in range(max_iter):
        costs = tableau[-1, :num_cols]
        entering_candidates = np.where(costs < -_TOLERANCE)[0]
        if entering_candidates.size == 0:
            return "optimal", iteration
        entering = int(entering_candidates[0])  # Bland's rule

        column = tableau[:num_rows, entering]
        positive = np.where(column > _TOLERANCE)[0]
        if positive.size == 0:
            return "unbounded", iteration
        ratios = tableau[positive, -1] / column[positive]
        best = np.min(ratios)
        # Bland's rule tie-break: smallest basis variable index.
        ties = positive[np.where(np.abs(ratios - best) <= _TOLERANCE * (1 + abs(best)))[0]]
        leaving = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, basis, leaving, entering)
    return "iteration_limit", max_iter


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)


class SimplexBackend:
    """Two-phase dense primal simplex with Bland's rule, on whole standard forms."""

    name = "simplex"

    def __init__(self, max_iterations: int = 20000) -> None:
        self.max_iterations = max_iterations

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> LPSolution:
        c = np.asarray(c, dtype=float)
        problem = _to_equational(
            c,
            _dense(a_ub),
            np.asarray(b_ub, dtype=float),
            _dense(a_eq),
            np.asarray(b_eq, dtype=float),
            np.asarray(bounds, dtype=float),
        )
        return self._solve(problem, c)

    def _solve(self, problem: _EquationalProblem, c: np.ndarray) -> LPSolution:
        a, b, costs = problem.a.copy(), problem.b.copy(), problem.c.copy()
        num_rows, num_cols = a.shape

        if num_rows == 0:
            # No constraints: optimum is at the origin of the split space
            # unless the objective is non-zero in a direction with no bound,
            # in which case it is unbounded.
            if np.any(costs != 0):
                return LPSolution(LPStatus.UNBOUNDED, message="no constraints")
            return LPSolution(
                LPStatus.OPTIMAL, problem.recover(np.zeros(num_cols)), 0.0, iterations=0
            )

        # Make every right-hand side non-negative before adding artificials.
        negative = b < 0
        a[negative] *= -1
        b[negative] *= -1

        # Phase 1: add one artificial variable per row.
        tableau = np.zeros((num_rows + 1, num_cols + num_rows + 1))
        tableau[:num_rows, :num_cols] = a
        tableau[:num_rows, num_cols:num_cols + num_rows] = np.eye(num_rows)
        tableau[:num_rows, -1] = b
        basis = np.arange(num_cols, num_cols + num_rows)
        # Phase-1 objective: sum of artificials; express reduced costs.
        tableau[-1, :num_cols] = -a.sum(axis=0)
        tableau[-1, -1] = -b.sum()

        outcome, phase1_iterations = _simplex_iterate(
            tableau, basis, num_cols + num_rows, self.max_iterations
        )
        if outcome == "iteration_limit":
            return LPSolution(LPStatus.ERROR, message="phase-1 iteration limit reached")
        phase1_objective = -tableau[-1, -1]
        if phase1_objective > 1e-6:
            return LPSolution(
                LPStatus.INFEASIBLE,
                message="phase-1 optimum positive",
                iterations=phase1_iterations,
            )

        # Drive any artificial variables out of the basis if possible.
        for row in range(num_rows):
            if basis[row] >= num_cols:
                pivot_candidates = np.where(np.abs(tableau[row, :num_cols]) > _TOLERANCE)[0]
                if pivot_candidates.size:
                    _pivot(tableau, basis, row, int(pivot_candidates[0]))

        # Phase 2: restore the true objective over the current basis.
        phase2 = np.zeros((num_rows + 1, num_cols + 1))
        phase2[:num_rows, :num_cols] = tableau[:num_rows, :num_cols]
        phase2[:num_rows, -1] = tableau[:num_rows, -1]
        phase2[-1, :num_cols] = costs
        # Zero out reduced costs of basic variables.
        for row in range(num_rows):
            col = basis[row]
            if col < num_cols and abs(phase2[-1, col]) > 0:
                phase2[-1] -= phase2[-1, col] * phase2[row]

        outcome, phase2_iterations = _simplex_iterate(
            phase2, basis, num_cols, self.max_iterations
        )
        iterations = phase1_iterations + phase2_iterations
        if outcome == "iteration_limit":
            return LPSolution(LPStatus.ERROR, message="phase-2 iteration limit reached")
        if outcome == "unbounded":
            return LPSolution(
                LPStatus.UNBOUNDED, message="phase-2 unbounded", iterations=iterations
            )
        return self._extract(problem, phase2, basis, c, iterations)

    @staticmethod
    def _extract(
        problem: _EquationalProblem,
        tableau: np.ndarray,
        basis: np.ndarray,
        c: np.ndarray,
        iterations: int,
    ) -> LPSolution:
        """Read the solution off an optimal tableau."""
        num_rows = tableau.shape[0] - 1
        num_cols = tableau.shape[1] - 1
        solution = np.zeros(num_cols)
        for row in range(num_rows):
            if basis[row] < num_cols:
                solution[basis[row]] = tableau[row, -1]
        x = problem.recover(solution)
        return LPSolution(
            LPStatus.OPTIMAL,
            values=x,
            objective=float(np.dot(c, x)),
            message="simplex optimal",
            iterations=iterations,
        )
