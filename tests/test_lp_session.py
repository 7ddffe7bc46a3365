"""The LP session: a retained HiGHS model with row generation.

* a **capability probe** pinning the private ``scipy.optimize._highspy``
  surface the solver drives, so a scipy upgrade that moves it fails here
  rather than deep inside a repair;
* the solver's **retained model**: a cold ``load`` + ``solve`` reproduces
  ``linprog``, a re-solve after ``add_rows`` is warm;
* a **property** over small repair-shaped LPs grown over several solves:
  after every solve the session agrees with a fresh solver's cold solve of
  its :meth:`~repro.lp.model.LPSession.standard_form` on status and
  objective, satisfies every row, and two sessions fed the same appends
  return the same bytes — on the real solver and on the reference simplex.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

import repro.lp.model as lp_model
from repro.lp.backends import ScipyBackend
from repro.lp.model import LPSession
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from tests.conftest import lp_solver
from tests.oracle import solve_cold
from tests.standard_form import csr_rows, solve_form

#: Every ``_core._Highs`` method the solver calls.
HIGHS_METHODS = (
    "passOptions",
    "passModel",
    "addRows",
    "run",
    "getModelStatus",
    "modelStatusToString",
    "getInfo",
    "getSolution",
)


class TestHighsSurface:
    def test_highs_methods_exist(self):
        missing = [name for name in HIGHS_METHODS if not callable(getattr(_core._Highs, name, None))]
        assert missing == []

    def test_statuses_exist(self):
        for member in ("kOptimal", "kInfeasible", "kUnbounded"):
            assert hasattr(_core.HighsModelStatus, member), member
        assert hasattr(_core.HighsStatus, "kError")

    def test_model_options_and_results_fields_exist(self):
        lp, options = _core.HighsLp(), _core.HighsOptions()
        for field in (
            "num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
            "row_lower_", "row_upper_", "a_matrix_",
        ):
            assert hasattr(lp, field), field
        for field in ("num_col_", "num_row_", "format_", "start_", "index_", "value_"):
            assert hasattr(lp.a_matrix_, field), field
        for field in ("presolve", "simplex_strategy", "highs_debug_level", "output_flag",
                      "log_to_console", "primal_feasibility_tolerance"):
            assert hasattr(options, field), field
        for field in ("simplex_iteration_count", "ipm_iteration_count", "objective_function_value"):
            assert hasattr(_core.HighsInfo(), field), field
        assert hasattr(_core.HighsSolution(), "col_value")
        assert hasattr(_core.MatrixFormat, "kColwise")
        assert hasattr(_core.simplex_constants.SimplexStrategy, "kSimplexStrategyDual")
        assert hasattr(_core.HighsDebugLevel, "kHighsDebugLevelNone")
        assert np.isinf(_core.kHighsInf)

    def test_csc_conversion_routine_exists(self):
        """The cold model's column-wise matrix comes from scipy's own routine."""
        from scipy.sparse._sparsetools import csr_tocsc

        assert callable(csr_tocsc)

    def test_violation_tolerance_is_the_solvers(self):
        """Rows are admitted at exactly HiGHS's primal feasibility tolerance."""
        tolerance = _core.HighsOptions().primal_feasibility_tolerance
        assert lp_model.VIOLATION_TOLERANCE == tolerance


def repair_shaped_session(num_deltas: int, norm: str) -> LPSession:
    session = LPSession()
    delta = session.add_variables(num_deltas)
    add_norm_objective(session, delta, norm)
    return session


def feasible_block(rng, rows: int, num_deltas: int, slack: float, point=None):
    """``rows`` random ``≤`` rows satisfied, with room, at ``point`` (default random)."""
    if point is None:
        point = rng.normal(size=num_deltas)
    matrix = rng.normal(size=(rows, num_deltas))
    rhs = matrix @ point + rng.uniform(0.1, slack, size=rows)
    return matrix, rhs


def random_block(rng, num_deltas: int, infeasible: bool):
    """A few random ``≤`` rows; ``infeasible`` adds a contradictory pair."""
    rows = int(rng.integers(1, 8))
    matrix = rng.normal(size=(rows, num_deltas))
    matrix[rng.random(matrix.shape) < 0.3] = 0.0
    rhs = rng.normal(size=rows)
    if infeasible:
        row = rng.normal(size=(1, num_deltas))
        threshold = float(rng.normal())
        matrix = np.vstack([matrix, row, -row])
        rhs = np.concatenate([rhs, [threshold, -(threshold + 1.0)]])
    return matrix, rhs


class TestRetainedModel:
    def test_cold_solve_reproduces_linprog(self, rng):
        session = repair_shaped_session(6, "linf")
        session.append_rows([feasible_block(rng, 20, 6, 1.0)])
        c, a_ub, b_ub, a_eq, b_eq, bounds = session.standard_form()
        expected = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(map(tuple, bounds)),
                           method="highs")
        solution = solve_form(ScipyBackend(), session.standard_form())
        assert solution.status is LPStatus.OPTIMAL and not solution.warm_start_used
        assert solution.values.tobytes() == expected.x.tobytes()
        assert solution.objective == expected.fun
        assert solution.iterations == expected.nit

    def test_appended_rows_resolve_warm(self, rng):
        session = repair_shaped_session(6, "linf")
        session.append_rows([feasible_block(rng, 20, 6, 1.0)])
        c, a_ub, b_ub, _, _, bounds = session.standard_form()
        held = b_ub.size
        solver = ScipyBackend()
        solver.load(c, bounds[:, 0], bounds[:, 1], *csr_rows(a_ub, b_ub))
        assert not solver.solve().warm_start_used
        session.append_rows([feasible_block(rng, 5, 6, 1.0)])
        _, a_ub, b_ub, *_ = session.standard_form()
        assert solver.add_rows(*csr_rows(a_ub[held:], b_ub[held:]))
        warm = solver.solve()
        cold = solve_cold(session.standard_form())
        assert warm.warm_start_used and not cold.warm_start_used
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        # A load replaces the model: the next solve is cold again.
        c[0] = 0.5
        solver.load(c, bounds[:, 0], bounds[:, 1], *csr_rows(a_ub, b_ub))
        assert not solver.solve().warm_start_used

    def test_session_admits_only_violated_rows(self, rng, monkeypatch):
        monkeypatch.setattr(lp_model, "SEED_ROWS", 3)
        monkeypatch.setattr(lp_model, "ROWS_PER_RESOLVE", 4)
        session = repair_shaped_session(4, "linf")
        norm_rows = session.num_rows
        # 40 rows with room around (2, 0, 0, 0), most of them slack at the
        # optimum, and one that the origin violates: delta_0 >= 1.
        session.append_rows([
            feasible_block(rng, 40, 4, 10.0, point=[2.0, 0, 0, 0]),
            (-np.eye(4)[:1], [-1.0]),
        ])
        first = session.solve()
        cold = solve_cold(session.standard_form())
        assert first.status is LPStatus.OPTIMAL
        assert first.objective == pytest.approx(cold.objective, rel=1e-9)
        assert not first.warm_start_used
        assert norm_rows < first.rows_admitted < session.num_rows == norm_rows + 41
        session.append_rows([feasible_block(rng, 3, 4, 1.0, point=[2.0, 0, 0, 0])])
        second = session.solve()
        assert second.warm_start_used
        assert second.rows_admitted >= first.rows_admitted
        assert second.objective == pytest.approx(
            solve_cold(session.standard_form()).objective, rel=1e-9
        )


@pytest.mark.parametrize("solver", ["scipy", "simplex"])
class TestSessionProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        num_deltas=st.integers(2, 5),
        norm=st.sampled_from(["linf", "l1"]),
        solves=st.integers(2, 4),
        limits=st.sampled_from([None, (1, 1), (2, 3)]),
    )
    def test_session_matches_cold_solve_after_every_append(
        self, solver, seed, num_deltas, norm, solves, limits
    ):
        rng = np.random.default_rng(seed)
        blocks = [
            random_block(rng, num_deltas, infeasible=rng.random() < 0.15)
            for _ in range(solves)
        ]
        with lp_solver(solver), pytest.MonkeyPatch.context() as patch:
            if limits is not None:
                # Tiny admission limits force many re-solves per solve.
                patch.setattr(lp_model, "SEED_ROWS", limits[0])
                patch.setattr(lp_model, "ROWS_PER_RESOLVE", limits[1])
            runs = []
            for _ in range(2):
                session = repair_shaped_session(num_deltas, norm)
                solutions = []
                for matrix, rhs in blocks:
                    session.append_rows([(matrix, rhs)])
                    solution = session.solve()
                    cold = solve_cold(session.standard_form())
                    assert solution.status is cold.status
                    if cold.status is LPStatus.OPTIMAL:
                        assert solution.objective == pytest.approx(
                            cold.objective, rel=1e-9, abs=1e-12
                        )
                        _, a_ub, b_ub, *_ = session.standard_form()
                        assert np.all(a_ub @ solution.values - b_ub <= 1e-7)
                    solutions.append(solution)
                runs.append(solutions)
        for first, second in zip(*runs):
            assert first.status is second.status
            assert first.rows_admitted == second.rows_admitted
            if first.status is LPStatus.OPTIMAL:
                assert first.values.tobytes() == second.values.tobytes()
