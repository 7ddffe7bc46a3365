"""Tests for Decoupled DNNs: the paper's Theorems 4.4, 4.5, and 4.6."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ddnn import DecoupledNetwork
from repro.core.specs import PointRepairSpec
from repro.exceptions import ShapeError, UnsupportedLayerError
from repro.nn.activations import (
    HardTanhLayer,
    LeakyReLULayer,
    ReLULayer,
    SigmoidLayer,
    TanhLayer,
)
from repro.nn.conv import Conv2DLayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.nn.pooling import MaxPool2DLayer
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from tests.conftest import make_random_relu_network, make_random_tanh_network
from tests.oracle import (
    exact_jacobians,
    finite_difference_jacobians,
    specification_jacobians,
)


def make_conv_network(rng) -> Network:
    """A small conv/maxpool/dense network for DDNN tests."""
    return Network(
        [
            Conv2DLayer.from_shape(1, 3, 3, input_height=6, input_width=6, padding=1, rng=rng),
            ReLULayer(3 * 6 * 6),
            MaxPool2DLayer(3, 6, 6, pool_size=2),
            FullyConnectedLayer.from_shape(3 * 3 * 3, 4, rng),
        ]
    )


class TestLinearize:
    @pytest.mark.parametrize("layer", [ReLULayer(4), TanhLayer(4), SigmoidLayer(4)])
    def test_exact_at_center(self, layer, rng):
        # The only property of a linearization Theorems 4.4 and 4.5 rely on
        # (Appendix C): Linearize[σ, z](z) = σ(z).
        preactivation = rng.normal(size=(1, 4))
        np.testing.assert_allclose(
            layer.decoupled_forward(preactivation, preactivation),
            layer.forward(preactivation),
            atol=1e-9,
        )


class TestTheorem44Equivalence:
    """Theorem 4.4: the trivially decoupled DDNN equals the original network."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_relu_network_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        network = make_random_relu_network(rng, (4, 9, 7, 3))
        ddnn = DecoupledNetwork.from_network(network)
        batch = rng.normal(size=(6, 4))
        np.testing.assert_allclose(ddnn.compute(batch), network.compute(batch), atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_tanh_network_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        network = make_random_tanh_network(rng, (3, 7, 5, 2))
        ddnn = DecoupledNetwork.from_network(network)
        batch = rng.normal(size=(5, 3))
        np.testing.assert_allclose(ddnn.compute(batch), network.compute(batch), atol=1e-9)

    def test_conv_maxpool_network_equivalence(self, rng):
        network = make_conv_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        batch = rng.normal(size=(4, network.input_size))
        np.testing.assert_allclose(ddnn.compute(batch), network.compute(batch), atol=1e-9)

    def test_toy_network_equivalence(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        for value in np.linspace(-1.0, 2.0, 13):
            assert ddnn.compute(np.array([value])) == pytest.approx(
                toy_network.compute(np.array([value]))
            )


class TestDDNNInterface:
    def test_channel_shape_validation(self, toy_network, rng):
        other = make_random_relu_network(rng, (1, 4, 1))
        with pytest.raises(ShapeError):
            DecoupledNetwork(toy_network, other)

    def test_depth_mismatch_rejected(self, toy_network, rng):
        shallow = Network([FullyConnectedLayer.from_shape(1, 1, rng)])
        with pytest.raises(ShapeError):
            DecoupledNetwork(toy_network, shallow)

    def test_activation_values_shape_checked(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        with pytest.raises(ShapeError):
            ddnn.compute(np.array([0.5]), np.array([[0.5], [0.6]]))

    def test_repairable_layer_indices(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        assert ddnn.repairable_layer_indices() == [0, 2]

    def test_check_repairable_rejects_activation_layer(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        with pytest.raises(UnsupportedLayerError):
            ddnn.batch_parameter_jacobian(1, np.array([[0.5]]))
        with pytest.raises(UnsupportedLayerError):
            ddnn.batch_parameter_jacobian(17, np.array([[0.5]]))

    def test_negative_layer_index(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        outputs, jacobians = ddnn.batch_parameter_jacobian(-1, np.array([[0.5]]))
        assert jacobians.shape == (1, 1, 4)

    def test_with_parameter_delta_validates_size(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        with pytest.raises(ShapeError):
            ddnn.with_parameter_delta(0, np.zeros(3))

    def test_predict_and_accuracy(self, rng):
        network = make_random_relu_network(rng, (4, 8, 3))
        ddnn = DecoupledNetwork.from_network(network)
        batch = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(ddnn.predict(batch), network.predict(batch))
        assert ddnn.accuracy(batch, network.predict(batch)) == 1.0

    def test_with_parameter_delta_derives_a_new_network(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        before = [layer.get_parameters().tobytes() for layer in ddnn.value.layers]
        repaired = ddnn.with_parameter_delta(0, np.ones(6))
        np.testing.assert_allclose(
            ddnn.compute(np.array([0.5])), toy_network.compute(np.array([0.5]))
        )
        assert [layer.get_parameters().tobytes() for layer in ddnn.value.layers] == before
        np.testing.assert_array_equal(
            repaired.value.layers[0].get_parameters(), ddnn.value.layers[0].get_parameters() + 1.0
        )
        # Theorem 4.6: only the repaired value layer's parameters are new.
        # Every layer object is the derived network's own (so editing one
        # network never moves the other), sharing the base's arrays.
        pairs = [
            *zip(repaired.activation.layers, ddnn.activation.layers),
            *zip(repaired.value.layers, ddnn.value.layers),
        ]
        assert all(mine is not theirs for mine, theirs in pairs)
        assert repaired.value.layers[0].weights is not ddnn.value.layers[0].weights
        assert all(
            vars(mine).get(name) is array
            for mine, theirs in pairs
            if mine is not repaired.value.layers[0]
            for name, array in vars(theirs).items()
            if isinstance(array, np.ndarray)
        )

    def test_removed_in_place_api_raises(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        with pytest.raises(AttributeError):
            ddnn.apply_parameter_delta(0, np.ones(6))
        with pytest.raises(AttributeError):
            ddnn.copy()

    def test_is_piecewise_linear(self, toy_network, random_tanh_network):
        assert DecoupledNetwork.from_network(toy_network).is_piecewise_linear()
        assert not DecoupledNetwork.from_network(random_tanh_network).is_piecewise_linear()


class TestTheorem45Linearity:
    """Theorem 4.5: the DDNN output is exactly affine in one value layer's parameters."""

    def test_paper_jacobian_values(self, toy_network):
        """The overview's Jacobians: N'(X1) row [·, -0.5, ·] and N'(X2) row [·, -1.5, 1.5, ·, ·, 1]."""
        ddnn = DecoupledNetwork.from_network(toy_network)
        (output,), (jacobian,) = ddnn.batch_parameter_jacobian(0, np.array([[0.5]]))
        assert output == pytest.approx(-0.5)
        # Weight columns: x→h1, x→h2, x→h3; bias columns: b1, b2, b3.
        np.testing.assert_allclose(jacobian, [[0.0, -0.5, 0.0, 0.0, -1.0, 0.0]])
        (output,), (jacobian,) = ddnn.batch_parameter_jacobian(0, np.array([[1.5]]))
        assert output == pytest.approx(-1.0)
        np.testing.assert_allclose(jacobian, [[0.0, -1.5, 1.5, 0.0, -1.0, 1.0]])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), layer_choice=st.integers(0, 2))
    def test_exact_affinity_in_value_parameters(self, seed, layer_choice):
        rng = np.random.default_rng(seed)
        network = make_random_relu_network(rng, (3, 7, 6, 2))
        ddnn = DecoupledNetwork.from_network(network)
        layer_index = ddnn.repairable_layer_indices()[layer_choice]
        point = rng.normal(size=3)
        (output,), (jacobian,) = ddnn.batch_parameter_jacobian(layer_index, point[None, :])
        # Apply a random (large!) delta: the affine prediction must be exact.
        delta = rng.normal(size=jacobian.shape[1]) * 3.0
        predicted = output + jacobian @ delta
        modified = ddnn.with_parameter_delta(layer_index, delta)
        np.testing.assert_allclose(modified.compute(point), predicted, atol=1e-7)

    def test_affinity_for_tanh_network(self, rng):
        network = make_random_tanh_network(rng, (3, 6, 4, 2))
        ddnn = DecoupledNetwork.from_network(network)
        point = rng.normal(size=3)
        for layer_index in ddnn.repairable_layer_indices():
            (output,), (jacobian,) = ddnn.batch_parameter_jacobian(layer_index, point[None, :])
            delta = rng.normal(size=jacobian.shape[1])
            modified = ddnn.with_parameter_delta(layer_index, delta)
            np.testing.assert_allclose(
                modified.compute(point), output + jacobian @ delta, atol=1e-7
            )

    def test_affinity_for_conv_maxpool_network(self, rng):
        network = make_conv_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        point = rng.normal(size=network.input_size)
        for layer_index in ddnn.repairable_layer_indices():
            (output,), (jacobian,) = ddnn.batch_parameter_jacobian(layer_index, point[None, :])
            delta = rng.normal(size=jacobian.shape[1])
            modified = ddnn.with_parameter_delta(layer_index, delta)
            np.testing.assert_allclose(
                modified.compute(point), output + jacobian @ delta, atol=1e-7
            )

    def test_jacobian_matches_finite_differences(self, rng):
        network = make_random_relu_network(rng, (3, 6, 4, 2))
        ddnn = DecoupledNetwork.from_network(network)
        point = rng.normal(size=3)
        for layer_index in ddnn.repairable_layer_indices():
            _, analytic = ddnn.batch_parameter_jacobian(layer_index, point[None, :])
            numeric = finite_difference_jacobians(ddnn, layer_index, point[None, :])
            np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_specification_jacobians_shapes(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        spec = PointRepairSpec(
            points=np.array([[0.5], [1.5]]),
            constraints=[HPolytope.from_interval(1, 0, -1.0, 0.0)] * 2,
        )
        outputs, jacobians = specification_jacobians(ddnn, 0, spec)
        assert outputs.shape == (2, 1)
        assert jacobians.shape == (2, 1, 6)
        # The repair path's vectorized pass agrees with the exact-difference oracle.
        batch_outputs, batch_jacobians = ddnn.batch_parameter_jacobian(0, spec.points)
        np.testing.assert_allclose(batch_outputs, outputs, atol=1e-12)
        np.testing.assert_allclose(batch_jacobians, jacobians, atol=1e-12)


#: Element-wise activations the property below builds networks from.
ELEMENTWISE_ACTIVATIONS = {
    "relu": ReLULayer,
    "leaky_relu": lambda size: LeakyReLULayer(size, negative_slope=0.1),
    "hardtanh": HardTanhLayer,
    "tanh": TanhLayer,
    "sigmoid": SigmoidLayer,
}


def make_property_network(rng, kind: str) -> Network:
    """A small random network of one activation kind, with random biases."""
    if kind == "conv_maxpool":
        return make_conv_network(rng)
    sizes = (3, 6, 5, 2)
    layers = []
    for index in range(len(sizes) - 1):
        dense = FullyConnectedLayer.from_shape(sizes[index], sizes[index + 1], rng)
        dense.biases = 0.5 * rng.normal(size=sizes[index + 1])
        layers.append(dense)
        if index < len(sizes) - 2:
            layers.append(ELEMENTWISE_ACTIVATIONS[kind](sizes[index + 1]))
    return Network(layers)


class TestJacobianOracleProperty:
    """batch_parameter_jacobian against ``compute`` alone, on every activation kind."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from([*ELEMENTWISE_ACTIVATIONS, "conv_maxpool"]),
        layer_choice=st.integers(0, 2),
    )
    def test_batch_jacobian_matches_exact_difference_oracle(self, seed, kind, layer_choice):
        rng = np.random.default_rng(seed)
        network = make_property_network(rng, kind)
        ddnn = DecoupledNetwork.from_network(network)
        repairable = ddnn.repairable_layer_indices()
        layer_index = repairable[layer_choice % len(repairable)]
        points = rng.normal(size=(3, network.input_size))
        # Activation points apart from the value points: the value channel
        # is linearized around somewhere other than where it is evaluated.
        activation_points = rng.normal(size=points.shape)
        outputs, jacobians = ddnn.batch_parameter_jacobian(
            layer_index, points, activation_points
        )
        expected_outputs, expected_jacobians = exact_jacobians(
            ddnn, layer_index, points, activation_points
        )
        np.testing.assert_allclose(outputs, expected_outputs, atol=1e-12, rtol=0)
        np.testing.assert_allclose(jacobians, expected_jacobians, atol=1e-12, rtol=0)
        # Theorem 4.5: the affine prediction holds for a large delta.
        delta = 3.0 * rng.normal(size=jacobians.shape[2])
        modified = ddnn.with_parameter_delta(layer_index, delta)
        np.testing.assert_allclose(
            modified.compute(points, activation_points), outputs + jacobians @ delta, atol=1e-7
        )


class TestTheorem46RegionsPreserved:
    """Theorem 4.6: changing value weights does not move the linear regions."""

    def test_value_edit_preserves_linear_regions(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        # A value-channel edit equivalent to the paper's N4 (x→h3 weight 1→2).
        ddnn = ddnn.with_parameter_delta(0, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
        partition = transform_line(
            ddnn.activation, LineSegment(np.array([-1.0]), np.array([2.0]))
        )
        np.testing.assert_allclose(
            partition.breakpoint_inputs.ravel(), [-1.0, 0.0, 1.0, 2.0], atol=1e-9
        )
        # ... while the same edit to the *network itself* (N2) moves them.
        from repro.models.toy import paper_network_n2

        moved = transform_line(
            paper_network_n2(), LineSegment(np.array([-1.0]), np.array([2.0]))
        )
        assert not np.allclose(
            moved.breakpoint_inputs.ravel(), partition.breakpoint_inputs.ravel()
        )

    def test_ddnn_piecewise_structure_after_value_edit(self, rng):
        """Within a region of the activation channel the edited DDNN stays affine.

        Region vertices lie on activation-pattern boundaries, so (per Appendix
        B) they are evaluated with the region's interior point pinned as the
        activation point; interior points use their own pattern, which is the
        same one.
        """
        network = make_random_relu_network(rng, (2, 8, 6, 2))
        ddnn = DecoupledNetwork.from_network(network)
        layer_index = ddnn.repairable_layer_indices()[1]
        delta = rng.normal(size=ddnn.value.layers[layer_index].num_parameters)
        ddnn = ddnn.with_parameter_delta(layer_index, delta)
        segment = LineSegment(rng.normal(size=2) * 2, rng.normal(size=2) * 2)
        partition = transform_line(ddnn.activation, segment)
        for region in partition.regions:
            left, right = region.vertices
            interior = region.interior_point
            midpoint = 0.5 * (left + right)
            interpolated = 0.5 * (
                ddnn.compute(left, interior) + ddnn.compute(right, interior)
            )
            np.testing.assert_allclose(ddnn.compute(midpoint, interior), interpolated, atol=1e-7)
            # The midpoint's own activation pattern is the region's pattern,
            # so pinning the activation point there must not change anything.
            np.testing.assert_allclose(
                ddnn.compute(midpoint), ddnn.compute(midpoint, interior), atol=1e-9
            )
