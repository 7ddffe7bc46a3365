"""Random-number-generator helpers.

All stochastic code in the package accepts either ``None``, an integer seed,
or a ``numpy.random.Generator`` and normalizes it through :func:`ensure_rng`
so experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np


def ensure_rng(seed_or_rng: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for the given seed or generator.

    ``None`` produces a fresh, OS-seeded generator; an ``int`` produces a
    deterministic generator; an existing generator is returned unchanged.
    """
    if seed_or_rng is None:
        return np.random.default_rng()
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(int(seed_or_rng))
    raise TypeError(
        f"expected None, int, or numpy Generator, got {type(seed_or_rng).__name__}"
    )


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators."""
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]

