"""Tests for the LP modelling layer, norm objectives, and the solver.

The library's one solver (scipy/HiGHS) is cross-checked against the
reference simplex of :mod:`tests.simplex`, substituted through the
``_BACKENDS`` seam by :func:`tests.conftest.lp_solver`.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import LPError
from repro.lp.backends import ScipyBackend, get_backend
from repro.lp.expression import LinearExpression
from repro.lp.model import LPModel
from repro.lp.norms import add_l1_objective, add_linf_objective, add_norm_objective
from repro.lp.status import LPStatus
from tests.conftest import lp_solver
from tests.oracle import dense_standard_form
from tests.simplex import SimplexBackend

BACKENDS = ("scipy", "simplex")


class TestLPModelConstruction:
    def test_add_variables_returns_indices(self):
        model = LPModel()
        indices = model.add_variables(3, "delta")
        assert list(indices) == [0, 1, 2]
        assert model.num_variables == 3
        assert model.variable_name(1) == "delta[1]"

    def test_invalid_bounds_rejected(self):
        model = LPModel()
        with pytest.raises(LPError):
            model.add_variable(lower=1.0, upper=0.0)

    def test_block_shape_validation(self):
        model = LPModel()
        model.add_variables(2)
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((1, 3)), [1.0])
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((2, 2)), [1.0])
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((1, 1)), [1.0], columns=[5])

    def test_num_constraints_counts_rows(self):
        model = LPModel()
        model.add_variables(2)
        model.add_leq_block(np.eye(2), np.ones(2))
        model.add_eq_block(np.ones((1, 2)), [1.0])
        assert model.num_constraints == 3

    def test_objective_coefficient_validation(self):
        model = LPModel()
        model.add_variable()
        with pytest.raises(LPError):
            model.set_objective_coefficient(5, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        model = LPModel()
        model.add_variables(2)
        with pytest.raises(LPError):
            model.add_leq_block(np.array([[1.0, value]]), [1.0])
        with pytest.raises(LPError):
            model.add_eq_block(sp.csr_matrix([[1.0, value]]), [1.0])
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((1, 2)), [value])
        with pytest.raises(LPError):
            model.set_objective_coefficient(0, value)
        assert model.num_constraints == 0

    def test_empty_model_solves_trivially(self):
        solution = LPModel().solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == 0.0

    @pytest.mark.parametrize(
        "equality,rhs,expected",
        [
            (False, -1.0, LPStatus.INFEASIBLE),  # 0 <= -1
            (False, 0.0, LPStatus.OPTIMAL),  # 0 <= 0
            (True, 1.0, LPStatus.INFEASIBLE),  # 0 == 1
            (True, 0.0, LPStatus.OPTIMAL),  # 0 == 0
        ],
    )
    def test_rows_without_variables_decide_feasibility(self, equality, rhs, expected):
        """With no variables every row is a constant claim about its rhs."""
        model = LPModel()
        add_block = model.add_eq_block if equality else model.add_leq_block
        add_block(np.zeros((1, 0)), [rhs], columns=[])
        assert model.solve().status is expected
        assert model.incremental_session().solve().status is expected

    def test_standard_form_shapes(self):
        model = LPModel()
        indices = model.add_variables(2, lower=0.0)
        model.add_leq_block(np.eye(2), np.ones(2), indices)
        model.add_eq_block(np.ones((1, 2)), [1.0], indices)
        c, a_ub, b_ub, a_eq, b_eq, bounds = model.standard_form()
        assert c.shape == (2,)
        assert a_ub.shape == (2, 2)
        assert a_eq.shape == (1, 2)
        assert bounds.shape == (2, 2)
        assert np.all(bounds[:, 0] == 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendsOnKnownProblems:
    def test_simple_bounded_minimization(self, backend):
        # minimize x + y  s.t.  x + y >= 1, x, y >= 0   → optimum 1.
        model = LPModel()
        x, y = model.add_variable(lower=0.0), model.add_variable(lower=0.0)
        model.add_geq(LinearExpression({x: 1.0, y: 1.0}), 1.0)
        model.set_objective_coefficient(x, 1.0)
        model.set_objective_coefficient(y, 1.0)
        with lp_solver(backend):
            solution = model.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_equality_constraint(self, backend):
        # minimize x subject to x == 3.
        model = LPModel()
        x = model.add_variable()
        model.add_eq(LinearExpression({x: 1.0}), 3.0)
        model.set_objective_coefficient(x, 1.0)
        with lp_solver(backend):
            solution = model.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[x] == pytest.approx(3.0, abs=1e-6)

    def test_infeasible_detected(self, backend):
        model = LPModel()
        x = model.add_variable()
        model.add_leq(LinearExpression({x: 1.0}), 0.0)
        model.add_geq(LinearExpression({x: 1.0}), 1.0)
        with lp_solver(backend):
            solution = model.solve()
        assert solution.status is LPStatus.INFEASIBLE

    def test_unbounded_detected(self, backend):
        model = LPModel()
        x = model.add_variable()
        model.add_leq(LinearExpression({x: 1.0}), 5.0)
        model.set_objective_coefficient(x, 1.0)  # minimize x, unbounded below
        with lp_solver(backend):
            solution = model.solve()
        assert solution.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE, LPStatus.ERROR)
        assert solution.status is not LPStatus.OPTIMAL

    def test_negative_rhs_handled(self, backend):
        # minimize x subject to -x <= -2  (i.e. x >= 2).
        model = LPModel()
        x = model.add_variable(lower=0.0)
        model.add_leq_block(np.array([[-1.0]]), [-2.0], [x])
        model.set_objective_coefficient(x, 1.0)
        with lp_solver(backend):
            solution = model.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[x] == pytest.approx(2.0, abs=1e-6)

    def test_box_bounds_respected(self, backend):
        model = LPModel()
        x = model.add_variable(lower=-2.0, upper=2.0)
        model.set_objective_coefficient(x, 1.0)
        with lp_solver(backend):
            solution = model.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[x] == pytest.approx(-2.0, abs=1e-6)


class TestNormObjectives:
    def test_linf_objective_value(self):
        # Force delta = (3, -1); the linf objective should be 3.
        model = LPModel()
        delta = model.add_variables(2)
        model.add_eq_block(np.eye(2), [3.0, -1.0], delta)
        add_linf_objective(model, delta)
        solution = model.solve()
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_l1_objective_value(self):
        model = LPModel()
        delta = model.add_variables(2)
        model.add_eq_block(np.eye(2), [3.0, -1.0], delta)
        add_l1_objective(model, delta)
        solution = model.solve()
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_l1_prefers_sparse_solutions(self):
        # x + y >= 1 with l1 objective: any point on the segment is optimal
        # with total norm 1; the solver must achieve exactly 1.
        model = LPModel()
        delta = model.add_variables(2)
        model.add_leq_block(np.array([[-1.0, -1.0]]), [-1.0], delta)
        add_l1_objective(model, delta)
        solution = model.solve()
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_combined_norm_accepted(self):
        model = LPModel()
        delta = model.add_variables(2)
        model.add_eq_block(np.eye(2), [1.0, 1.0], delta)
        add_norm_objective(model, delta, "l1+linf")
        solution = model.solve()
        assert solution.status is LPStatus.OPTIMAL

    def test_unknown_norm_rejected(self):
        model = LPModel()
        delta = model.add_variables(1)
        with pytest.raises(LPError):
            add_norm_objective(model, delta, "l7")

    def test_empty_block_rejected(self):
        model = LPModel()
        with pytest.raises(LPError):
            add_linf_objective(model, np.array([], dtype=int))
        with pytest.raises(LPError):
            add_l1_objective(model, np.array([], dtype=int))


class TestBackendRegistry:
    def test_default_backend(self):
        solver = get_backend()
        assert isinstance(solver, ScipyBackend) and solver.name == "scipy"
        # The seam the test-suite substitutes through.
        with lp_solver("simplex"):
            assert isinstance(get_backend(), SimplexBackend)


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
            model = LPModel()
            delta = model.add_variables(num_vars, lower=-50.0, upper=50.0)
            model.add_leq_block(matrix, rhs, delta)
            add_l1_objective(model, delta)
            with lp_solver(backend):
                solutions[backend] = model.solve()

        for backend, solution in solutions.items():
            assert solution.status is LPStatus.OPTIMAL, backend
            values = solution.values[:num_vars]
            assert np.all(matrix @ values <= rhs + 1e-6)
        assert solutions["scipy"].objective == pytest.approx(
            solutions["simplex"].objective, abs=1e-5, rel=1e-5
        )


class TestBackendPortfolioOracle:
    """Property-based equivalence oracle: the solver against the references.

    Random standard forms with a *known* status class (feasible-bounded,
    infeasible, unbounded) are solved three ways: by the library (the CSR
    form), by the same solver on the dense by-eye form of
    :func:`tests.oracle.dense_standard_form`, and by the reference simplex.
    All solves must agree on status, and on the objective within tolerance
    when optimal.
    """

    @staticmethod
    def _build(kind: str, rng: np.random.Generator, num_vars: int, num_rows: int) -> LPModel:
        model = LPModel()
        if kind == "unbounded":
            # Free variables, minimized, constrained from above only: the
            # objective improves without limit along -e1 from the feasible
            # origin, so every solver must report UNBOUNDED.
            delta = model.add_variables(num_vars)
            model.add_leq_block(np.eye(num_vars), rng.uniform(1.0, 5.0, size=num_vars), delta)
            model.set_objective_coefficient(int(delta[0]), 1.0)
            return model
        # Box-bounded variables rule unboundedness out; a guaranteed
        # interior point rules (accidental) infeasibility in.
        delta = model.add_variables(num_vars, lower=-50.0, upper=50.0)
        matrix = rng.normal(size=(num_rows, num_vars))
        interior = rng.uniform(-1.0, 1.0, size=num_vars)
        rhs = matrix @ interior + rng.uniform(0.1, 1.0, size=num_rows)
        model.add_leq_block(matrix, rhs, delta)
        if kind == "infeasible":
            # An inconsistent pair on top: sum(x) <= t and sum(x) >= t + 1.
            row = np.ones((1, num_vars))
            threshold = float(rng.normal())
            model.add_leq_block(row, [threshold], delta)
            model.add_leq_block(-row, [-(threshold + 1.0)], delta)
        add_l1_objective(model, delta)
        return model

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
        model = self._build(kind, np.random.default_rng(seed), num_vars, num_rows)
        solutions = {
            "scipy": model.solve(),
            "scipy-dense": ScipyBackend().solve(*dense_standard_form(model)),
            "simplex": SimplexBackend().solve(*model.standard_form()),
        }

        statuses = {backend: solution.status for backend, solution in solutions.items()}
        assert set(statuses.values()) == {expected}, statuses
        if expected is LPStatus.OPTIMAL:
            objectives = [solution.objective for solution in solutions.values()]
            for objective in objectives[1:]:
                assert objective == pytest.approx(objectives[0], abs=1e-5, rel=1e-5)
