"""The LP solver: scipy's vendored HiGHS, held in process across solves.

:class:`ScipyBackend` drives ``scipy.optimize._highspy._core._Highs``
directly.  Its first :meth:`~ScipyBackend.solve` passes the whole model
(``passModel``), built and configured the way scipy's public
``method="highs"`` LP interface does it, so a cold solve returns the bytes
that interface returns.  Every later solve on the same instance receives a
form whose rows *extend* the previous one's: only the new suffix goes in
(``addRows``), and HiGHS re-runs from the basis it already holds.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core

from repro.lp.backends.base import LPBackend
from repro.lp.model import LPSolution
from repro.lp.status import LPStatus

#: HiGHS model statuses that carry a verdict; every other status is an
#: :attr:`LPStatus.ERROR` (scipy's interface maps them the same way,
#: ``kUnboundedOrInfeasible`` included).
_STATUS_MAP = {
    _core.HighsModelStatus.kOptimal: LPStatus.OPTIMAL,
    _core.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
}


def _options() -> _core.HighsOptions:
    """The options scipy's ``method="highs"`` interface passes, no output."""
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


def _finite(values: np.ndarray) -> np.ndarray:
    """A float64 copy with ``±inf`` replaced by HiGHS's infinity."""
    values = np.array(values, dtype=np.float64)
    infinite = np.isinf(values)
    values[infinite] = np.sign(values[infinite]) * _core.kHighsInf
    return values


def _row_bounds(b_ub: np.ndarray, b_eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` of ``b_ub`` rows (``-inf ≤ ·``) then ``b_eq`` rows."""
    lower = np.concatenate([np.full(b_ub.shape[0], -np.inf), b_eq])
    return _finite(lower), _finite(np.concatenate([b_ub, b_eq]))


class ScipyBackend(LPBackend):
    """Solve LPs on one retained HiGHS model.

    A fresh instance's first solve is cold.  A later solve whose form keeps
    the objective, bounds and leading rows of the previous one (rows only
    appended, to either sense) adds just the new rows and re-runs warm; a
    form that does not extend the held model is passed in whole again.
    """

    name = "scipy"

    def __init__(self) -> None:
        self._highs: _core._Highs | None = None
        self._cost: np.ndarray | None = None
        self._bounds: np.ndarray | None = None
        self._ub_rows = 0
        self._eq_rows = 0

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> LPSolution:
        c = np.asarray(c, dtype=np.float64)
        bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
        b_ub = np.asarray(b_ub, dtype=np.float64)
        b_eq = np.asarray(b_eq, dtype=np.float64)
        warm = self._extends(c, bounds, b_ub, b_eq) and self._add_rows(a_ub, b_ub, a_eq, b_eq)
        if not warm:
            self._pass_model(c, a_ub, b_ub, a_eq, b_eq, bounds)
        self._ub_rows, self._eq_rows = b_ub.shape[0], b_eq.shape[0]
        self._highs.run()
        return self._solution(warm)

    def _extends(self, c, bounds, b_ub, b_eq) -> bool:
        return (
            self._highs is not None
            and b_ub.shape[0] >= self._ub_rows
            and b_eq.shape[0] >= self._eq_rows
            and np.array_equal(c, self._cost)
            and np.array_equal(bounds, self._bounds)
        )

    def _pass_model(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> None:
        # Built exactly as scipy's interface builds it: one column-wise
        # matrix of the inequality rows over the equality rows.
        matrix = sp.csc_array(sp.vstack((sp.csr_array(a_ub), sp.csr_array(a_eq))))
        lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = c.size
        lp.num_row_ = lp.a_matrix_.num_row_ = matrix.shape[0]
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.col_cost_ = c
        lp.col_lower_ = _finite(bounds[:, 0])
        lp.col_upper_ = _finite(bounds[:, 1])
        lp.row_lower_, lp.row_upper_ = _row_bounds(b_ub, b_eq)
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        self._highs = _core._Highs()
        self._highs.passOptions(_options())
        if self._highs.passModel(lp) == _core.HighsStatus.kError:
            # HiGHS kept no model (its run reports the error); never extend it.
            self._cost = None
        else:
            self._cost, self._bounds = c.copy(), bounds.copy()

    def _add_rows(self, a_ub, b_ub, a_eq, b_eq) -> bool:
        """Append the rows past the held ones; false if HiGHS rejected them."""
        new_ub = sp.csr_array(a_ub)[self._ub_rows :]
        new_eq = sp.csr_array(a_eq)[self._eq_rows :]
        rows = sp.csr_array(sp.vstack((new_ub, new_eq)))
        if not rows.shape[0]:
            return True
        lower, upper = _row_bounds(b_ub[self._ub_rows :], b_eq[self._eq_rows :])
        return self._highs.addRows(
            rows.shape[0],
            lower,
            upper,
            rows.nnz,
            rows.indptr[:-1].astype(np.int32),
            rows.indices.astype(np.int32),
            rows.data,
        ) != _core.HighsStatus.kError

    def _solution(self, warm: bool) -> LPSolution:
        highs = self._highs
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        status = _STATUS_MAP.get(model_status, LPStatus.ERROR)
        message = highs.modelStatusToString(model_status)
        iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
        if status is LPStatus.OPTIMAL:
            return LPSolution(
                status=status,
                values=np.array(highs.getSolution().col_value, dtype=np.float64),
                objective=float(info.objective_function_value),
                message=message,
                iterations=iterations,
                warm_start_used=warm,
            )
        return LPSolution(
            status=status, message=message, iterations=iterations, warm_start_used=warm
        )
