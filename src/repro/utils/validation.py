"""Input-validation helpers shared across the package.

These helpers normalize user-provided arrays to ``float64`` NumPy arrays and
raise :class:`repro.exceptions.ShapeError` with informative messages when the
shape is wrong.  Keeping validation centralized keeps the numerical code free
of repetitive checks.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.exceptions import ShapeError


def check_vector(value, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Return ``value`` as a 1-D float64 array, optionally of a fixed size."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {array.shape}")
    if size is not None and array.shape[0] != size:
        raise ShapeError(f"{name} must have length {size}, got {array.shape[0]}")
    return array


def check_matrix(
    value,
    name: str = "matrix",
    rows: int | None = None,
    cols: int | None = None,
) -> np.ndarray:
    """Return ``value`` as a 2-D float64 array, optionally of fixed shape."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {array.shape}")
    if rows is not None and array.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {array.shape[0]}")
    if cols is not None and array.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {array.shape[1]}")
    return array


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` if it is read-only all the way down its ``base`` chain, else a read-only copy.

    The chain must end in an array that owns its data: a read-only view of
    a foreign buffer (``np.frombuffer`` of a ``bytearray``, a read-only
    memory map) can still change under it, so it is copied too.  The copy
    keeps the memory layout (``order="K"``), which BLAS rounding depends
    on; a caller's writable array is never frozen in place.
    """
    base = array
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if base.base is None and base.flags.owndata:
            return array
        base = base.base
    array = array.copy(order="K")
    array.flags.writeable = False
    return array


def remember_frozen(array: np.ndarray) -> np.ndarray:
    """:func:`frozen` of ``array``, remembered so :func:`frozen_root` finds it.

    Every remembered array is also finite: ``repro.verify.base.frozen_array``
    checks before it remembers, and the other callers remember stacks or
    gathers of arrays it returned.
    """
    array = frozen(array)
    _FROZEN[id(array)] = array
    return array


def frozen_root(array: np.ndarray) -> np.ndarray | None:
    """The remembered array ``array`` is, or is a view of; ``None`` otherwise.

    A view of a remembered array is read-only because its base is, and
    NumPy will not make it writable again, so both can be trusted never to
    change: a digest or a check made of them once holds for their lifetime.
    """
    if _FROZEN.get(id(array)) is array:
        return array
    base = array.base
    if base is not None and _FROZEN.get(id(base)) is base:
        return base
    return None


#: The arrays :func:`remember_frozen` returned, by ``id``.  An entry leaves
#: with its array, so an ``id`` found here always names the live array.
_FROZEN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def check_finite(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Raise if ``array`` contains NaN or infinity; otherwise return it."""
    if not np.all(np.isfinite(array)):
        raise ShapeError(f"{name} contains non-finite entries")
    return array


def check_positive_int(value, name: str = "value") -> int:
    """Return ``value`` as a positive ``int`` or raise ``ValueError``."""
    as_int = int(value)
    if as_int != value or as_int <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return as_int

