"""The LP solver.

There is one: :class:`~repro.lp.backends.scipy_backend.ScipyBackend`, an
in-process HiGHS model that an instance keeps across its solves.  Its
protocol (:class:`~repro.lp.backends.base.LPBackend`) is incremental:
``load`` a cold model, then ``add_rows`` only new rows between ``solve``
calls, all on raw CSR arrays.  Each :class:`~repro.lp.model.LPSession`
holds one instance for its whole life.
``_BACKENDS`` is the single seam — :func:`get_backend` instantiates
whatever class it maps ``"scipy"`` to, which is how the test-suite
substitutes its reference simplex or a fault-injection stub.
"""

from __future__ import annotations

from repro.lp.backends.base import LPBackend
from repro.lp.backends.scipy_backend import ScipyBackend

_BACKENDS: dict[str, type[LPBackend]] = {"scipy": ScipyBackend}


def get_backend() -> LPBackend:
    """A fresh instance of the LP solver."""
    return _BACKENDS["scipy"]()


__all__ = ["LPBackend", "ScipyBackend", "get_backend"]
