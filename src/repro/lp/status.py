"""Solver status codes of an LP solve."""

from __future__ import annotations

import enum


class LPStatus(enum.Enum):
    """Outcome of an LP solve.

    ``OPTIMAL``
        A feasible, objective-optimal solution was found.
    ``INFEASIBLE``
        The constraints admit no solution (the repair does not exist for
        the chosen layer).
    ``UNBOUNDED``
        The objective can decrease without bound (never expected for the
        norm-minimization objectives used here, but reported faithfully).
    ``ERROR``
        The solver failed for a numerical or internal reason (an
        iteration limit, say); nothing is proven about the LP.
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        """True when a usable solution is available."""
        return self is LPStatus.OPTIMAL
