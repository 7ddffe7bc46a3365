"""The interface of the LP solver."""

from __future__ import annotations

import abc

from repro.lp.model import LPSolution


class LPBackend(abc.ABC):
    """An LP solver holding one model that grows by rows.

    The model is ``minimize cost @ x`` subject to ``A @ x <= rhs`` and
    ``lower <= x <= upper`` (bounds may be ``±inf``).  Rows arrive as raw
    CSR arrays over all the columns: ``indptr`` (int64, from 0),
    ``indices`` (int32, sorted and distinct within a row) and ``data``
    (float64), with one finite ``rhs`` per row.  An
    :class:`~repro.lp.model.LPSession` calls :meth:`load` for a cold model,
    then :meth:`add_rows` with only rows the model lacks between
    :meth:`solve` calls.  The library has one implementation
    (scipy/HiGHS); the test-suite's reference simplex and fault stubs sit
    behind an adapter.
    """

    #: Human-readable solver name (telemetry labels).
    name: str = "abstract"

    @abc.abstractmethod
    def load(self, cost, lower, upper, indptr, indices, data, rhs) -> bool:
        """Replace the model with a cold one; false if the solver rejected it.

        A rejected model leaves none: the next :meth:`solve` is an ERROR.
        """

    @abc.abstractmethod
    def add_rows(self, indptr, indices, data, rhs) -> bool:
        """Append rows to the model; false if the solver rejected them."""

    @abc.abstractmethod
    def solve(self) -> LPSolution:
        """Solve the model; ``warm_start_used`` is false only right after a load."""
