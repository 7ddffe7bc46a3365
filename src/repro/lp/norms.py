"""Norm-minimization objectives for LPs.

The repair LPs minimize either the ℓ1 or the ℓ∞ norm of the parameter delta
``Δ``.  Both are encoded with auxiliary variables in the standard way
(Granger et al., "Optimization with absolute values"):

* ℓ∞: one auxiliary ``t ≥ 0`` with ``-t ≤ Δ_i ≤ t`` for every ``i``, and
  objective ``t``.
* ℓ1: one auxiliary ``t_i ≥ 0`` per delta with ``-t_i ≤ Δ_i ≤ t_i``, and
  objective ``sum_i t_i``.

Both helpers operate on a *block* of existing variables of an
:class:`repro.lp.model.LPSession`, add the auxiliary variables (with their
objective weight) and the rows the solver always holds, and return the
indices of the auxiliary variables so callers can inspect them if needed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.lp.model import LPSession

#: Norm names accepted by the repair entry points.
SUPPORTED_NORMS = ("l1", "linf", "l1+linf")


def _delta_block(delta_indices) -> np.ndarray:
    delta_indices = np.asarray(delta_indices, dtype=int)
    if delta_indices.size == 0:
        raise LPError("cannot minimize the norm of an empty variable block")
    return delta_indices


def _add_absolute_value_rows(session: LPSession, delta_indices: np.ndarray, aux) -> None:
    """Add ``Δ_i - t_i ≤ 0`` for every ``i``, then ``-Δ_i - t_i ≤ 0``, as one CSR block.

    ``aux`` holds the ``t_i`` (one shared index for ℓ∞).  The auxiliaries
    are fresh variables, so each row's ``t_i`` column follows its ``Δ_i``
    column and the two-entry rows are already canonical.
    """
    count = delta_indices.size
    columns = np.empty((2, count, 2), dtype=int)
    columns[:, :, 0] = delta_indices
    columns[:, :, 1] = aux
    data = np.full((2, count, 2), -1.0)
    data[0, :, 0] = 1.0
    matrix = sp.csr_matrix(
        (data.ravel(), columns.ravel(), np.arange(0, 4 * count + 1, 2)),
        shape=(2 * count, session.num_variables),
    )
    session.add_rows(matrix, np.zeros(2 * count))


def add_linf_objective(session: LPSession, delta_indices, weight: float = 1.0) -> int:
    """Add ``weight * ||Δ||_∞`` to the session objective; return the aux index."""
    delta_indices = _delta_block(delta_indices)
    (bound,) = session.add_variables(1, lower=0.0, cost=weight)
    _add_absolute_value_rows(session, delta_indices, bound)
    return int(bound)


def add_l1_objective(session: LPSession, delta_indices, weight: float = 1.0) -> np.ndarray:
    """Add ``weight * ||Δ||_1`` to the session objective; return aux indices."""
    delta_indices = _delta_block(delta_indices)
    aux = session.add_variables(delta_indices.size, lower=0.0, cost=weight)
    _add_absolute_value_rows(session, delta_indices, aux)
    return aux


def add_norm_objective(session: LPSession, delta_indices, norm: str = "linf") -> None:
    """Add the requested norm objective over ``delta_indices``.

    ``norm`` may be ``"l1"``, ``"linf"``, or ``"l1+linf"`` (the combination
    the original PRDNN implementation uses by default: the ℓ∞ norm keeps the
    largest single change small while the ℓ1 term promotes sparsity).
    """
    if norm == "linf":
        add_linf_objective(session, delta_indices)
    elif norm == "l1":
        add_l1_objective(session, delta_indices)
    elif norm == "l1+linf":
        add_linf_objective(session, delta_indices, weight=float(len(delta_indices)))
        add_l1_objective(session, delta_indices, weight=1.0)
    else:
        raise LPError(f"unsupported norm {norm!r}; expected one of {SUPPORTED_NORMS}")
