"""The interface of the LP solver."""

from __future__ import annotations

import abc

import numpy as np

from repro.lp.model import LPSolution


class LPBackend(abc.ABC):
    """Solves LPs given in the standard form of ``LPSession.standard_form``.

    The library has one implementation (scipy/HiGHS); the test-suite's
    reference simplex and fault-injection stubs implement it too.
    """

    #: Human-readable solver name (telemetry labels).
    name: str = "abstract"

    @abc.abstractmethod
    def solve(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: np.ndarray,
        a_eq,
        b_eq: np.ndarray,
        bounds: np.ndarray,
    ) -> LPSolution:
        """Solve ``min c@x  s.t.  a_ub@x<=b_ub, a_eq@x==b_eq, bounds``.

        Successive calls on one instance from an :class:`~repro.lp.model.LPSession`
        pass forms whose rows extend the previous call's (rows are only
        appended, to either sense); a solver may keep state across calls to
        exploit that, and a stateless one simply solves each form.

        ``a_ub`` and ``a_eq`` may be dense arrays or ``scipy.sparse``
        matrices (``LPSession.standard_form`` gives CSR and an empty
        ``a_eq``); ``bounds`` is an ``(n, 2)`` array of per-variable
        ``(lower, upper)`` pairs whose entries may be ``±inf``.
        """
        raise NotImplementedError
