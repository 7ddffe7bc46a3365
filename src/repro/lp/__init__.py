"""Linear-programming substrate.

The paper uses Gurobi to solve the repair LPs.  This package solves them
with one solver, scipy's vendored HiGHS
(:class:`repro.lp.backends.scipy_backend.ScipyBackend`).  A one-shot
:meth:`LPModel.solve` is a cold solve of every row; an
:class:`LPSession` keeps one HiGHS model alive across its solves, adds
constraint rows to it only when the current solution violates them (row
generation), and re-solves warm from the basis HiGHS holds.

The modelling layer (:class:`repro.lp.model.LPModel`) supports named scalar
and vector variables, ``≤``/``≥``/``=`` constraints, box bounds, linear
objectives, and the ℓ1/ℓ∞ norm objectives used by the repair algorithms
(encoded with auxiliary variables, see :mod:`repro.lp.norms`).
"""

from repro.lp.model import LPModel, LPSession, LPSolution
from repro.lp.status import LPStatus
from repro.lp.expression import LinearExpression
from repro.lp.backends import get_backend

__all__ = [
    "LPModel",
    "LPSession",
    "LPSolution",
    "LPStatus",
    "LinearExpression",
    "get_backend",
]
