"""Shared fixtures for the test-suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.prefix_cache import PrefixCache
from repro.lp.backends import _BACKENDS, ScipyBackend
from repro.models.toy import paper_network_n1, paper_network_n2
from repro.nn.activations import ReLULayer, TanhLayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.utils.rng import ensure_rng
from tests.simplex import SimplexBackend
from tests.standard_form import standard_form_backend

#: The solvers a test can run the library on: its own, and the reference
#: (a standard-form solver, behind the incremental-protocol adapter).
SOLVERS = {"scipy": ScipyBackend, "simplex": standard_form_backend(SimplexBackend)}


@contextmanager
def lp_solver(name: str):
    """Solve every LP inside the block with the solver ``SOLVERS[name]``.

    The library has one solver; ``"simplex"`` substitutes the test-suite's
    reference for it through the ``_BACKENDS`` seam, so the same repair code
    can be cross-checked on an independent solver.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_BACKENDS, "scipy", SOLVERS[name])
        yield


@contextmanager
def prefix_cache_off():
    """Evaluate every batch through the full layer loop.

    Every :class:`PrefixCache` lookup declines inside the block, which is
    exactly the uncached path; differential tests run a workload with and
    without it and compare bytes.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrefixCache, "layer_inputs", lambda self, *args: None)
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return ensure_rng(12345)


@pytest.fixture
def toy_network() -> Network:
    """The paper's running-example network N₁ (Figure 3(a))."""
    return paper_network_n1()


@pytest.fixture
def toy_network_n2() -> Network:
    """The paper's modified network N₂ (Figure 3(b))."""
    return paper_network_n2()


def make_random_relu_network(
    rng: np.random.Generator,
    layer_sizes: tuple[int, ...] = (4, 8, 6, 3),
) -> Network:
    """A small random fully-connected ReLU network (helper for many tests)."""
    layers = []
    for index in range(len(layer_sizes) - 1):
        layers.append(
            FullyConnectedLayer.from_shape(layer_sizes[index], layer_sizes[index + 1], rng)
        )
        if index < len(layer_sizes) - 2:
            layers.append(ReLULayer(layer_sizes[index + 1]))
    return Network(layers)


def make_random_tanh_network(
    rng: np.random.Generator,
    layer_sizes: tuple[int, ...] = (3, 6, 4, 2),
) -> Network:
    """A small random fully-connected Tanh network (non-PWL activations)."""
    layers = []
    for index in range(len(layer_sizes) - 1):
        layers.append(
            FullyConnectedLayer.from_shape(layer_sizes[index], layer_sizes[index + 1], rng)
        )
        if index < len(layer_sizes) - 2:
            layers.append(TanhLayer(layer_sizes[index + 1]))
    return Network(layers)


@pytest.fixture
def random_relu_network(rng) -> Network:
    """A small random ReLU network."""
    return make_random_relu_network(rng)


@pytest.fixture
def random_tanh_network(rng) -> Network:
    """A small random Tanh network."""
    return make_random_tanh_network(rng)
