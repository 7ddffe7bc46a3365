"""The LP solver: scipy's HiGHS through ``scipy.optimize.linprog``."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.backends.base import LPBackend
from repro.lp.model import LPSolution
from repro.lp.status import LPStatus

#: Mapping from ``scipy.optimize.linprog`` status codes to :class:`LPStatus`.
_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,       # iteration limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,
}


def _num_entries(matrix) -> int:
    """Logical entry count of a dense or sparse matrix (rows × cols).

    Deliberately not ``nnz``: an all-zero block still carries rows whose
    right-hand sides constrain feasibility (e.g. ``0 == b_eq``).
    """
    rows, cols = matrix.shape
    return rows * cols


class ScipyBackend(LPBackend):
    """Solve LPs with ``scipy.optimize.linprog(method="highs")``.

    HiGHS is a sparsity-exploiting solver, so the CSR constraint matrices of
    ``LPModel.standard_form`` are forwarded as-is.  Every solve is cold.
    """

    name = "scipy"

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> LPSolution:
        bounds_list = [(row[0], row[1]) for row in np.asarray(bounds, dtype=float)]
        result = linprog(
            c,
            A_ub=a_ub if _num_entries(a_ub) else None,
            b_ub=b_ub if _num_entries(a_ub) else None,
            A_eq=a_eq if _num_entries(a_eq) else None,
            b_eq=b_eq if _num_entries(a_eq) else None,
            bounds=bounds_list,
            method="highs",
        )
        status = _STATUS_MAP.get(result.status, LPStatus.ERROR)
        iterations = int(result.nit) if getattr(result, "nit", None) is not None else None
        if status is LPStatus.OPTIMAL and result.x is not None:
            return LPSolution(
                status=status,
                values=np.asarray(result.x, dtype=np.float64),
                objective=float(result.fun),
                message=str(result.message),
                iterations=iterations,
            )
        return LPSolution(status=status, message=str(result.message), iterations=iterations)
