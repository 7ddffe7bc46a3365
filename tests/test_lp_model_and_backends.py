"""Tests for building an LP session, the norm objectives, and the solver.

The library's one solver (scipy/HiGHS) is cross-checked against the
reference simplex of :mod:`tests.simplex`, substituted through the
``_BACKENDS`` seam by :func:`tests.conftest.lp_solver`.  The known-problem
tests hand both solvers standard forms written out by hand, so they share
no code with :class:`~repro.lp.model.LPSession`.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import LPError
from repro.lp.backends import ScipyBackend, get_backend
from repro.lp.model import LPSession
from repro.lp.norms import add_l1_objective, add_linf_objective, add_norm_objective
from repro.lp.status import LPStatus
from tests.conftest import lp_solver
from tests.oracle import repair_standard_form
from tests.simplex import SimplexBackend
from tests.standard_form import solve_form

BACKENDS = ("scipy", "simplex")


class TestLPModelConstruction:
    """Building an :class:`LPSession`: variables, rows and their checks."""

    def test_add_variables_returns_indices(self):
        session = LPSession()
        indices = session.add_variables(3)
        assert list(indices) == [0, 1, 2]
        assert session.num_variables == 3

    def test_invalid_bounds_rejected(self):
        session = LPSession()
        with pytest.raises(LPError):
            session.add_variables(1, lower=1.0, upper=0.0)

    def test_block_shape_validation(self):
        session = LPSession()
        session.add_variables(2)
        with pytest.raises(LPError):
            session.add_rows(np.ones((1, 3)), [1.0])
        with pytest.raises(LPError):
            session.add_rows(np.ones((2, 2)), [1.0])
        with pytest.raises(LPError):
            session.append_rows([(sp.csr_matrix(np.ones((1, 3))), [1.0])])
        assert session.num_rows == 0

    def test_num_constraints_counts_rows(self):
        session = LPSession()
        session.add_variables(2)
        session.add_rows(np.eye(2), np.ones(2))
        assert session.append_rows([(np.ones((1, 2)), [1.0])]) == 1
        assert session.num_rows == 3

    def test_objective_coefficient_validation(self):
        session = LPSession()
        session.add_variables(1, lower=0.0, cost=2.0)
        session.add_variables(2, lower=0.0, cost=0.5)
        np.testing.assert_array_equal(session.standard_form()[0], [2.0, 0.5, 0.5])
        with pytest.raises(LPError):
            session.add_variables(1, cost=np.nan)
        # Once solved, the variables (and so the objective) are fixed.
        session.solve()
        with pytest.raises(LPError):
            session.add_variables(1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        session = LPSession()
        session.add_variables(2)
        with pytest.raises(LPError):
            session.add_rows(np.array([[1.0, value]]), [1.0])
        with pytest.raises(LPError):
            session.append_rows([(sp.csr_matrix([[1.0, value]]), [1.0])])
        with pytest.raises(LPError):
            session.append_rows([(np.ones((1, 2)), [value])])
        with pytest.raises(LPError):
            session.add_variables(1, cost=value)
        assert session.num_rows == 0 and session.num_variables == 2

    def test_empty_model_solves_trivially(self):
        solution = LPSession().solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == 0.0

    @pytest.mark.parametrize(
        "held,rhs,expected",
        [
            (True, -1.0, LPStatus.INFEASIBLE),  # 0 <= -1
            (True, 0.0, LPStatus.OPTIMAL),  # 0 <= 0
            (False, -1.0, LPStatus.INFEASIBLE),
            (False, 0.0, LPStatus.OPTIMAL),
        ],
    )
    def test_rows_without_variables_decide_feasibility(self, held, rhs, expected):
        """With no variables every row is a constant claim about its rhs."""
        session = LPSession()
        if held:
            session.add_rows(np.zeros((1, 0)), [rhs])
        else:
            session.append_rows([(np.zeros((1, 0)), [rhs])])
        assert session.solve().status is expected

    def test_standard_form_shapes(self):
        session = LPSession()
        session.add_variables(2, lower=0.0)
        session.add_rows(np.eye(2), np.ones(2))
        session.append_rows([(np.ones((1, 2)), [1.0])])
        c, a_ub, b_ub, a_eq, b_eq, bounds = session.standard_form()
        assert c.shape == (2,)
        assert sp.isspmatrix_csr(a_ub) and a_ub.shape == (3, 2)
        assert a_eq.shape == (0, 2) and b_eq.shape == (0,)
        assert bounds.shape == (2, 2)
        assert np.all(bounds[:, 0] == 0.0)


def solve_by_hand(c, a_ub, b_ub, bounds, a_eq=None, b_eq=None):
    """A hand-written standard form, solved once by a fresh solver."""
    n = len(c)
    return solve_form(get_backend(), (
        np.asarray(c, dtype=float),
        np.asarray(a_ub, dtype=float).reshape(-1, n),
        np.asarray(b_ub, dtype=float),
        np.asarray(a_eq if a_eq is not None else np.zeros((0, n)), dtype=float),
        np.asarray(b_eq if b_eq is not None else np.zeros(0), dtype=float),
        np.asarray(bounds, dtype=float),
    ))


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendsOnKnownProblems:
    def test_simple_bounded_minimization(self, backend):
        # minimize x + y  s.t.  x + y >= 1, x, y >= 0   → optimum 1.
        with lp_solver(backend):
            solution = solve_by_hand(
                [1.0, 1.0], [[-1.0, -1.0]], [-1.0], [[0.0, np.inf], [0.0, np.inf]]
            )
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_equality_constraint(self, backend):
        # minimize x subject to x == 3.
        with lp_solver(backend):
            solution = solve_by_hand(
                [1.0], [], [], [[-np.inf, np.inf]], a_eq=[[1.0]], b_eq=[3.0]
            )
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[0] == pytest.approx(3.0, abs=1e-6)

    def test_infeasible_detected(self, backend):
        # x <= 0 and x >= 1.
        with lp_solver(backend):
            solution = solve_by_hand([0.0], [[1.0], [-1.0]], [0.0, -1.0], [[-np.inf, np.inf]])
        assert solution.status is LPStatus.INFEASIBLE

    def test_unbounded_detected(self, backend):
        # minimize x subject to x <= 5: unbounded below.
        with lp_solver(backend):
            solution = solve_by_hand([1.0], [[1.0]], [5.0], [[-np.inf, np.inf]])
        assert solution.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE, LPStatus.ERROR)
        assert solution.status is not LPStatus.OPTIMAL

    def test_negative_rhs_handled(self, backend):
        # minimize x subject to -x <= -2  (i.e. x >= 2).
        with lp_solver(backend):
            solution = solve_by_hand([1.0], [[-1.0]], [-2.0], [[0.0, np.inf]])
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[0] == pytest.approx(2.0, abs=1e-6)

    def test_box_bounds_respected(self, backend):
        with lp_solver(backend):
            solution = solve_by_hand([1.0], [], [], [[-2.0, 2.0]])
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[0] == pytest.approx(-2.0, abs=1e-6)


def fixed_deltas(values) -> tuple[LPSession, np.ndarray]:
    """A session whose deltas are pinned to ``values`` by held ``≤`` rows."""
    values = np.asarray(values, dtype=float)
    session = LPSession()
    delta = session.add_variables(values.size)
    identity = np.eye(values.size)
    session.add_rows(np.vstack([identity, -identity]), np.concatenate([values, -values]))
    return session, delta


class TestNormObjectives:
    def test_linf_objective_value(self):
        # Force delta = (3, -1); the linf objective should be 3.
        session, delta = fixed_deltas([3.0, -1.0])
        add_linf_objective(session, delta)
        solution = session.solve()
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_l1_objective_value(self):
        session, delta = fixed_deltas([3.0, -1.0])
        add_l1_objective(session, delta)
        solution = session.solve()
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_l1_prefers_sparse_solutions(self):
        # x + y >= 1 with l1 objective: any point on the segment is optimal
        # with total norm 1; the solver must achieve exactly 1.
        session = LPSession()
        delta = session.add_variables(2)
        add_l1_objective(session, delta)
        session.append_rows([(np.array([[-1.0, -1.0]]), [-1.0])])
        solution = session.solve()
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_combined_norm_accepted(self):
        session, delta = fixed_deltas([1.0, 1.0])
        add_norm_objective(session, delta, "l1+linf")
        solution = session.solve()
        assert solution.status is LPStatus.OPTIMAL
        # 2·‖Δ‖∞ + ‖Δ‖1 = 2 + 2.
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_unknown_norm_rejected(self):
        session = LPSession()
        delta = session.add_variables(1)
        with pytest.raises(LPError):
            add_norm_objective(session, delta, "l7")

    def test_empty_block_rejected(self):
        session = LPSession()
        with pytest.raises(LPError):
            add_linf_objective(session, np.array([], dtype=int))
        with pytest.raises(LPError):
            add_l1_objective(session, np.array([], dtype=int))


class TestBackendRegistry:
    def test_default_backend(self):
        solver = get_backend()
        assert isinstance(solver, ScipyBackend) and solver.name == "scipy"
        # The seam the test-suite substitutes through.
        with lp_solver("simplex"):
            assert isinstance(get_backend().solver, SimplexBackend)


class TestBackendAgreement:
    """Property-based cross-check of the solver and the reference simplex."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_backends_agree_on_random_feasible_lps(self, data):
        num_vars = data.draw(st.integers(1, 4))
        num_rows = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        matrix = rng.normal(size=(num_rows, num_vars))
        interior = rng.normal(size=num_vars)
        rhs = matrix @ interior + rng.uniform(0.1, 1.0, size=num_rows)

        solutions = {}
        for backend in BACKENDS:
            with lp_solver(backend):
                session = LPSession()
                delta = session.add_variables(num_vars, lower=-50.0, upper=50.0)
                add_l1_objective(session, delta)
                session.append_rows([(matrix, rhs)])
                solutions[backend] = session.solve()

        for backend, solution in solutions.items():
            assert solution.status is LPStatus.OPTIMAL, backend
            values = solution.values[:num_vars]
            assert np.all(matrix @ values <= rhs + 1e-6)
        assert solutions["scipy"].objective == pytest.approx(
            solutions["simplex"].objective, abs=1e-5, rel=1e-5
        )


class TestBackendPortfolioOracle:
    """Property-based equivalence oracle: the solver against the references.

    Random LPs with a *known* status class (feasible-bounded, infeasible,
    unbounded) are solved three ways: by the library (an
    :class:`LPSession`), by a fresh solver on the same LP written out by
    eye as dense arrays, and by the reference simplex on the session's
    standard form.  All solves must agree on status, and on the objective
    within tolerance when optimal.
    """

    @staticmethod
    def _build(kind: str, rng: np.random.Generator, num_vars: int, num_rows: int):
        """``(session, dense_form)``: the same LP built both ways."""
        session = LPSession()
        if kind == "unbounded":
            # Free variables, minimized, constrained from above only: the
            # objective improves without limit along -e1 from the feasible
            # origin, so every solver must report UNBOUNDED.
            rhs = rng.uniform(1.0, 5.0, size=num_vars)
            session.add_variables(1, cost=1.0)
            session.add_variables(num_vars - 1)
            session.append_rows([(np.eye(num_vars), rhs)])
            c = np.eye(num_vars)[0]
            bounds = np.tile([-np.inf, np.inf], (num_vars, 1))
            return session, (c, np.eye(num_vars), rhs, np.zeros((0, num_vars)), np.zeros(0), bounds)
        # Box-bounded variables rule unboundedness out; a guaranteed
        # interior point rules (accidental) infeasibility in.
        delta = session.add_variables(num_vars, lower=-50.0, upper=50.0)
        add_l1_objective(session, delta)
        matrix = rng.normal(size=(num_rows, num_vars))
        interior = rng.uniform(-1.0, 1.0, size=num_vars)
        blocks = [(matrix, matrix @ interior + rng.uniform(0.1, 1.0, size=num_rows))]
        if kind == "infeasible":
            # An inconsistent pair on top: sum(x) <= t and sum(x) >= t + 1.
            row = np.ones((1, num_vars))
            threshold = float(rng.normal())
            blocks += [(row, [threshold]), (-row, [-(threshold + 1.0)])]
        session.append_rows(blocks)
        return session, repair_standard_form(num_vars, "l1", 50.0, blocks)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_portfolio_agrees_on_random_standard_forms(self, data):
        kind = data.draw(st.sampled_from(["feasible", "infeasible", "unbounded"]))
        num_vars = data.draw(st.integers(1, 4))
        num_rows = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 10_000))

        expected = {
            "feasible": LPStatus.OPTIMAL,
            "infeasible": LPStatus.INFEASIBLE,
            "unbounded": LPStatus.UNBOUNDED,
        }[kind]
        session, dense_form = self._build(kind, np.random.default_rng(seed), num_vars, num_rows)
        solutions = {
            "scipy": session.solve(),
            "scipy-dense": solve_form(ScipyBackend(), dense_form),
            "simplex": SimplexBackend().solve(*session.standard_form()),
        }

        statuses = {backend: solution.status for backend, solution in solutions.items()}
        assert set(statuses.values()) == {expected}, statuses
        if expected is LPStatus.OPTIMAL:
            objectives = [solution.objective for solution in solutions.values()]
            for objective in objectives[1:]:
                assert objective == pytest.approx(objectives[0], abs=1e-5, rel=1e-5)
