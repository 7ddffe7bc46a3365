"""Small shared utilities: RNG handling, validation, timing, serialization."""

from repro.utils.rng import ensure_rng
from repro.utils.timing import TimeBudget
from repro.utils.validation import (
    check_matrix,
    check_vector,
    check_finite,
    check_positive_int,
)

__all__ = [
    "ensure_rng",
    "TimeBudget",
    "check_matrix",
    "check_vector",
    "check_finite",
    "check_positive_int",
]
