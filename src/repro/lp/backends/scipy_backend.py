"""The LP solver: scipy's vendored HiGHS, held in process across solves.

:class:`ScipyBackend` drives ``scipy.optimize._highspy._core._Highs``
directly.  :meth:`~ScipyBackend.load` passes the whole model
(``passModel``), built and configured the way scipy's public
``method="highs"`` LP interface does it (the same column-wise matrix,
converted by the same ``csr_tocsc`` routine), so a cold solve returns the
bytes that interface returns.  :meth:`~ScipyBackend.add_rows` hands HiGHS
new rows (``addRows``), and the next solve re-runs from the basis it
already holds.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize._highspy import _core
from scipy.sparse._sparsetools import csr_tocsc

from repro.lp.backends.base import LPBackend
from repro.lp.model import LPSolution
from repro.lp.status import LPStatus

#: The HiGHS model class, looked up here so tests can substitute a recorder.
_Highs = _core._Highs

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


#: The options of every model, built once: ``passOptions`` copies its
#: argument into the model, so no model ever holds (or changes) this object.
_OPTIONS = _options()


def _finite(values: np.ndarray) -> np.ndarray:
    """A float64 copy with ``±inf`` replaced by HiGHS's infinity."""
    values = np.array(values, dtype=np.float64)
    infinite = np.isinf(values)
    values[infinite] = np.sign(values[infinite]) * _core.kHighsInf
    return values


def _row_bounds(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HiGHS's ``(lower, upper)`` of ``≤ rhs`` rows: ``-inf ≤ · ≤ rhs``."""
    return np.full(rhs.shape[0], -_core.kHighsInf), _finite(rhs)


class ScipyBackend(LPBackend):
    """Solve LPs on one retained HiGHS model.

    The first solve after a :meth:`load` is cold; every later one re-runs
    warm from the basis HiGHS holds, over the rows added since.
    """

    name = "scipy"

    def __init__(self) -> None:
        self._highs: _core._Highs | None = None
        self._warm = False

    def load(self, cost, lower, upper, indptr, indices, data, rhs) -> bool:
        # The column-wise matrix, converted as scipy's ``tocsc`` converts it.
        start = np.empty(cost.size + 1, dtype=np.int32)
        index = np.empty(data.size, dtype=np.int32)
        value = np.empty(data.size, dtype=np.float64)
        csr_tocsc(rhs.size, cost.size, indptr.astype(np.int32), indices, data, start, index, value)
        lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
        lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.col_cost_ = cost
        lp.col_lower_ = _finite(lower)
        lp.col_upper_ = _finite(upper)
        lp.row_lower_, lp.row_upper_ = _row_bounds(rhs)
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        self._highs = _Highs()
        self._highs.passOptions(_OPTIONS)
        self._warm = False
        # On kError HiGHS kept no model; its run reports the error.
        return self._highs.passModel(lp) != _core.HighsStatus.kError

    def add_rows(self, indptr, indices, data, rhs) -> bool:
        lower, upper = _row_bounds(rhs)
        return self._highs.addRows(
            rhs.size,
            lower,
            upper,
            data.size,
            indptr[:-1].astype(np.int32),
            indices,
            data,
        ) != _core.HighsStatus.kError

    def solve(self) -> LPSolution:
        highs = self._highs
        highs.run()
        warm, self._warm = self._warm, True
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
