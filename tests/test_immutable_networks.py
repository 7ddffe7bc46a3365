"""Tests for immutable networks: frozen, shared layers instead of copies.

* a layer never aliases its caller's arrays: constructors and
  ``set_parameters`` copy a writable array and leave it writable;
* every parameter array is read-only — in a built network, after
  ``set_parameters``, after ``Network.copy()`` and after an encode/decode
  round trip — and the round trip keeps the fingerprint;
* the fingerprint (per-layer memoized digests) is equal for equal networks
  in two processes and changes with any one-ulp edit of any layer;
* a driver run derives its networks: the repaired network's layer objects
  are its own, but share every array of the activation channel and of the
  unrepaired value layers with the base; the caller's network keeps its
  attributes and bytes, and no deep copy is taken anywhere;
* a derived network and its base never move each other: ``set_parameters``
  on a layer of either leaves the other's outputs as they were.
"""

from __future__ import annotations

import copy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.ddnn import DecoupledNetwork
from repro.driver import DriverConfig, RepairDriver
from repro.models.acas_models import build_acas_network
from repro.nn.activations import LeakyReLULayer, ReLULayer
from repro.nn.conv import Conv2DLayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.nn.reshape import NormalizeLayer
from repro.polytope.hpolytope import HPolytope
from repro.utils.serialization import decode_network, encode_network, network_fingerprint
from repro.verify import SyrennVerifier, VerificationSpec

SRC = Path(__file__).resolve().parents[1] / "src"


def parameter_arrays(network: Network) -> list[np.ndarray]:
    return [
        value
        for layer in network.layers
        for value in vars(layer).values()
        if isinstance(value, np.ndarray)
    ]


def assert_read_only(network: Network) -> None:
    arrays = parameter_arrays(network)
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


class TestConstructorArraysAreCopied:
    """A layer built from a caller's array never moves when the caller writes to it."""

    @staticmethod
    def assert_isolated(caller_array, layer, point) -> None:
        before = layer.forward(point)
        assert caller_array.flags.writeable
        assert not any(
            np.shares_memory(caller_array, value)
            for value in vars(layer).values()
            if isinstance(value, np.ndarray)
        )
        caller_array[...] = 5.0
        assert layer.forward(point).tobytes() == before.tobytes()

    def test_fully_connected(self):
        weights = np.ones((2, 2))
        layer = FullyConnectedLayer(weights)
        np.testing.assert_array_equal(layer.forward(np.array([[1.0, 1.0]])), [[2.0, 2.0]])
        self.assert_isolated(weights, layer, np.array([[1.0, 1.0]]))

    def test_conv2d(self, rng):
        kernels = rng.normal(size=(2, 1, 2, 2))
        layer = Conv2DLayer(kernels, input_height=3, input_width=3)
        self.assert_isolated(kernels, layer, rng.normal(size=(1, 9)))

    def test_normalize(self, rng):
        means = rng.normal(size=4)
        layer = NormalizeLayer(means, np.ones(4))
        self.assert_isolated(means, layer, rng.normal(size=(1, 4)))

    def test_set_parameters_copies_a_writable_vector(self, rng):
        layer = FullyConnectedLayer.from_shape(3, 2, rng)
        flat = rng.normal(size=layer.num_parameters)
        layer.set_parameters(flat)
        self.assert_isolated(flat, layer, rng.normal(size=(1, 3)))

    def test_memory_layout_is_kept(self, rng):
        # A transposed (Fortran-ordered) weight matrix stays Fortran-ordered,
        # so BLAS sees the same layout as before the copy.
        weights = np.asfortranarray(rng.normal(size=(4, 3)))
        layer = FullyConnectedLayer(weights)
        assert layer.weights.flags.f_contiguous and not layer.weights.flags.c_contiguous

    def test_read_only_arrays_are_shared(self, rng):
        layer = FullyConnectedLayer.from_shape(3, 2, rng)
        assert layer.copy().weights is layer.weights
        rebuilt = FullyConnectedLayer(layer.weights, layer.biases)
        assert rebuilt.weights is layer.weights


class TestParameterArraysAreReadOnly:
    def test_built_network(self, random_relu_network):
        assert_read_only(random_relu_network)

    def test_after_set_parameters(self, random_relu_network):
        for layer in random_relu_network.layers[::2]:
            layer.set_parameters(layer.get_parameters() + 1.0)
        assert_read_only(random_relu_network)

    def test_after_network_copy(self, random_relu_network):
        assert_read_only(random_relu_network.copy())

    def test_after_decode_of_encode(self, random_relu_network):
        restored = decode_network(encode_network(random_relu_network))
        assert_read_only(restored)
        assert network_fingerprint(restored) == network_fingerprint(random_relu_network)

    def test_ddnn_round_trip(self, random_relu_network):
        ddnn = DecoupledNetwork.from_network(random_relu_network)
        restored = decode_network(encode_network(ddnn))
        assert_read_only(restored.activation)
        assert_read_only(restored.value)
        assert network_fingerprint(restored) == network_fingerprint(ddnn)

    def test_from_network_channels_stay_independent(self, random_relu_network):
        ddnn = DecoupledNetwork.from_network(random_relu_network)
        before = network_fingerprint(random_relu_network)
        layer = ddnn.value.layers[0]
        layer.set_parameters(layer.get_parameters() + 1.0)
        assert network_fingerprint(random_relu_network) == before
        assert network_fingerprint(ddnn.activation) == before


class TestFingerprint:
    def test_equal_across_processes(self):
        script = (
            "from repro.models.acas_models import build_acas_network\n"
            "from repro.utils.serialization import network_fingerprint\n"
            "print(network_fingerprint(build_acas_network(hidden_size=8, hidden_layers=2, seed=3)))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "123"},
        )
        network = build_acas_network(hidden_size=8, hidden_layers=2, seed=3)
        assert child.stdout.strip() == network_fingerprint(network)

    def test_one_ulp_in_any_layer_changes_it(self, rng):
        network = Network(
            [
                NormalizeLayer(rng.normal(size=3), np.ones(3)),
                FullyConnectedLayer.from_shape(3, 4, rng),
                LeakyReLULayer(4, 0.25),
                FullyConnectedLayer.from_shape(4, 2, rng),
            ]
        )
        base = network_fingerprint(network)
        for index, layer in enumerate(network.layers):
            edited = network.copy()
            target = edited.layers[index]
            if isinstance(target, NormalizeLayer):
                means = target.means.copy()
                means[-1] = np.nextafter(means[-1], np.inf)
                target.means = means
            elif isinstance(target, LeakyReLULayer):
                target.negative_slope = np.nextafter(target.negative_slope, 1.0)
            else:
                flat = target.get_parameters()
                flat[-1] = np.nextafter(flat[-1], np.inf)
                target.set_parameters(flat)
            assert network_fingerprint(edited) != base, index
            # The edit drops the memo of that layer only; the original keeps its own.
            assert network_fingerprint(network) == base

    def test_digest_is_memoized_and_dropped_on_assignment(self, rng):
        layer = FullyConnectedLayer.from_shape(3, 2, rng)
        digest = layer.digest
        assert layer.digest is digest
        assert layer.copy().digest is digest
        layer.set_parameters(layer.get_parameters())
        assert layer.digest == digest and layer.digest is not digest


@pytest.fixture
def plane_case(rng):
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 6, rng),
            ReLULayer(6),
            FullyConnectedLayer.from_shape(6, 3, rng),
        ]
    )
    winner = int(np.bincount(network.predict(rng.uniform(-1, 1, (400, 2))), minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_plane(
        [[-1, -1], [1, -1], [1, 1], [-1, 1]], HPolytope.argmax_region(3, winner, 1e-4)
    )
    return network, spec


def run_driver(network, spec):
    driver = RepairDriver(network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=8))
    return driver, driver.run()


def shares_arrays(layer, other) -> bool:
    """Whether two layer objects hold the very same arrays and digest."""
    arrays = {name for name, value in vars(other).items() if isinstance(value, np.ndarray)}
    return layer.digest == other.digest and all(
        getattr(layer, name) is getattr(other, name) for name in arrays
    )


def value_bytes(network: DecoupledNetwork) -> list[bytes]:
    return [layer.get_parameters().tobytes() for layer in network.value.layers]


class TestDriverDerivesNetworks:
    def test_repaired_network_shares_all_but_the_repaired_layer(self, plane_case):
        network, spec = plane_case
        driver, report = run_driver(network, spec)
        assert report.status == "certified"
        (repaired,) = {record.layer_index for record in report.rounds if record.repair_feasible}
        for mine, base in zip(report.network.activation.layers, driver.base.activation.layers):
            assert mine is not base and shares_arrays(mine, base)
        for index, (mine, base) in enumerate(
            zip(report.network.value.layers, driver.base.value.layers)
        ):
            assert mine is not base
            assert shares_arrays(mine, base) is (index != repaired), index

    def test_caller_ddnn_is_never_modified(self, plane_case):
        network, spec = plane_case
        ddnn = DecoupledNetwork.from_network(network)
        attributes = dict(vars(ddnn))
        channels = [
            [layer.get_parameters().tobytes() for layer in channel.layers]
            for channel in (ddnn.activation, ddnn.value)
        ]
        driver, report = run_driver(ddnn, spec)
        assert report.status == "certified"
        assert vars(ddnn) == attributes
        assert ddnn.prefix_cache is None
        assert [
            [layer.get_parameters().tobytes() for layer in channel.layers]
            for channel in (ddnn.activation, ddnn.value)
        ] == channels
        for mine, caller in zip(report.network.activation.layers, ddnn.activation.layers):
            assert shares_arrays(mine, caller)

    def test_no_deep_copy_is_taken(self, plane_case, monkeypatch):
        network, spec = plane_case
        _, expected = run_driver(network, spec)

        def refuse(*args, **kwargs):
            raise AssertionError("copy.deepcopy called")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        _, report = run_driver(network, spec)
        assert report.status == expected.status
        assert report.num_rounds == expected.num_rounds
        assert value_bytes(report.network) == value_bytes(expected.network)


class TestDerivedNetworksAreIndependent:
    """``with_parameter_delta`` gives the derived network its own layer objects."""

    @staticmethod
    def one_two_one():
        network = Network(
            [
                FullyConnectedLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
                ReLULayer(2),
                FullyConnectedLayer(np.array([[1.0, 1.0]]), np.zeros(1)),
            ]
        )
        return DecoupledNetwork.from_network(network)

    def test_base_edit_leaves_the_derived_network(self):
        ddnn = self.one_two_one()
        repaired = ddnn.with_parameter_delta(2, np.ones(3))
        before = repaired.compute([[0.5]]).tobytes()
        for channel in (ddnn.value, ddnn.activation):
            for index in (0, 2):
                layer = channel.layers[index]
                layer.set_parameters(layer.get_parameters() + 1.0)
        assert repaired.compute([[0.5]]).tobytes() == before

    def test_derived_edit_leaves_the_base(self):
        ddnn = self.one_two_one()
        before = ddnn.compute([[0.5]]).tobytes()
        repaired = ddnn.with_parameter_delta(2, np.ones(3))
        for channel in (repaired.value, repaired.activation):
            for index in (0, 2):
                layer = channel.layers[index]
                layer.set_parameters(layer.get_parameters() + 1.0)
        assert ddnn.compute([[0.5]]).tobytes() == before

    def test_unrepaired_layers_share_arrays_and_digests(self):
        ddnn = self.one_two_one()
        repaired = ddnn.with_parameter_delta(2, np.ones(3))
        for mine, base in zip(repaired.activation.layers, ddnn.activation.layers):
            assert mine is not base and shares_arrays(mine, base)
        for index, (mine, base) in enumerate(zip(repaired.value.layers, ddnn.value.layers)):
            assert mine is not base
            assert shares_arrays(mine, base) is (index != 2), index
