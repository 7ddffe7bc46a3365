"""Whole standard forms on the incremental LP protocol, both ways round.

The library's solver protocol (:class:`repro.lp.backends.LPBackend`) is
incremental: ``load`` a cold model, ``add_rows``, ``solve``, on raw CSR
arrays.  Some of the test-suite's solvers solve whole standard forms
``solve(c, a_ub, b_ub, a_eq, b_eq, bounds)`` instead — the reference simplex
(:mod:`tests.simplex`) and the fault-injection stubs — and some tests hand a
solver a whole standard form written out by hand.

* :class:`StandardFormBackend` adapts a standard-form solver to the
  protocol: it collects the ``load``/``add_rows`` payloads and hands the
  solver the standard form they add up to on every ``solve()``.
  :func:`standard_form_backend` makes a ``_BACKENDS`` entry of one.
* :func:`solve_form` goes the other way: it loads a standard form into a
  protocol solver cold and solves it once.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp

from repro.lp.backends import LPBackend
from repro.lp.model import LPSolution


class StandardFormBackend(LPBackend):
    """A standard-form solver behind the incremental protocol.

    Stateless: every ``solve()`` solves the whole model collected so far
    (the rows in the order they were loaded and added), so the solution's
    ``warm_start_used`` is whatever the wrapped solver reports.
    """

    def __init__(self, solver_class) -> None:
        self.solver = solver_class()
        self.name = self.solver.name
        self._cost = np.zeros(0)
        self._bounds = np.zeros((0, 2))
        self._rows: list[sp.csr_matrix] = []
        self._rhs: list[np.ndarray] = []

    def load(self, cost, lower, upper, indptr, indices, data, rhs) -> bool:
        self._cost = np.array(cost, dtype=np.float64)
        self._bounds = np.column_stack([lower, upper])
        self._rows, self._rhs = [], []
        return self.add_rows(indptr, indices, data, rhs)

    def add_rows(self, indptr, indices, data, rhs) -> bool:
        shape = (rhs.shape[0], self._cost.size)
        self._rows.append(sp.csr_matrix((data, indices, indptr), shape=shape, copy=True))
        self._rhs.append(np.array(rhs, dtype=np.float64))
        return True

    def solve(self) -> LPSolution:
        n = self._cost.size
        return self.solver.solve(
            self._cost,
            sp.vstack(self._rows, format="csr"),
            np.concatenate(self._rhs),
            sp.csr_matrix((0, n)),
            np.zeros(0),
            self._bounds,
        )


def standard_form_backend(solver_class):
    """A ``_BACKENDS`` entry: each instance adapts a fresh ``solver_class()``."""
    return partial(StandardFormBackend, solver_class)


def csr_rows(matrix, rhs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The protocol's ``(indptr, indices, data, rhs)`` payload of a CSR row block."""
    matrix = sp.csr_matrix(matrix)
    return (
        matrix.indptr.astype(np.int64),
        matrix.indices.astype(np.int32),
        matrix.data.astype(np.float64),
        np.asarray(rhs, dtype=np.float64),
    )


def solve_form(backend: LPBackend, form) -> LPSolution:
    """Load the standard form ``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` cold and solve it.

    ``a_ub``/``a_eq`` may be dense or sparse; zero entries are dropped, as
    ``sp.csr_matrix`` drops them.  An equality row ``a @ x == b`` goes in as
    the two rows ``a @ x <= b`` and ``-a @ x <= -b``, after every ``≤`` row.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds = form
    c = np.asarray(c, dtype=np.float64)
    a_eq = sp.csr_matrix(a_eq, dtype=np.float64)
    rows = sp.vstack([sp.csr_matrix(a_ub, dtype=np.float64), a_eq, -a_eq], format="csr")
    rows.sum_duplicates()
    b_eq = np.asarray(b_eq, dtype=np.float64)
    rhs = np.concatenate([np.asarray(b_ub, dtype=np.float64), b_eq, -b_eq])
    bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
    backend.load(c, bounds[:, 0], bounds[:, 1], *csr_rows(rows, rhs))
    return backend.solve()
