"""Linear-programming substrate.

The paper uses Gurobi to solve the repair LPs.  This package solves them
with one solver, scipy's vendored HiGHS
(:class:`repro.lp.backends.scipy_backend.ScipyBackend`), through one
object: an :class:`LPSession` holds the variables (box bounds and
objective coefficients) and every constraint row once, as raw CSR arrays,
keeps one HiGHS model alive across its solves, admits constraint rows to
it only when the current solution violates them (row generation), hands
HiGHS just the rows it does not hold yet, and re-solves warm from the
basis HiGHS holds.  :mod:`repro.lp.norms` adds the ℓ1/ℓ∞ norm
objectives the repair algorithms minimize (encoded with auxiliary
variables).
"""

from repro.lp.model import LPSession, LPSolution
from repro.lp.status import LPStatus
from repro.lp.backends import get_backend

__all__ = [
    "LPSession",
    "LPSolution",
    "LPStatus",
    "get_backend",
]
