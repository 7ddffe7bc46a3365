"""Tests for the individual layer types (linear, conv, activations, pooling, reshape)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.exceptions import LayerError, ShapeError
from repro.nn.activations import (
    HardTanhLayer,
    LeakyReLULayer,
    ReLULayer,
    SigmoidLayer,
    TanhLayer,
)
from repro.nn.conv import Conv2DLayer, conv_output_size
from repro.nn.layer import LayerKind
from repro.nn.linear import FullyConnectedLayer
from repro.nn.pooling import AvgPool2DLayer, GlobalAvgPoolLayer, MaxPool2DLayer
from repro.nn.reshape import FlattenLayer, NormalizeLayer
from tests import oracle
from tests.oracle import maxpool_backward_per_row, window_indices


class TestFullyConnectedLayer:
    def test_forward_matches_matrix_formula(self, rng):
        layer = FullyConnectedLayer.from_shape(4, 3, rng)
        batch = rng.normal(size=(5, 4))
        expected = batch @ layer.weights.T + layer.biases
        np.testing.assert_allclose(layer.forward(batch), expected)

    def test_shape_properties(self, rng):
        layer = FullyConnectedLayer.from_shape(4, 3, rng)
        assert layer.input_size == 4
        assert layer.output_size == 3
        assert layer.kind is LayerKind.PARAMETERIZED
        assert layer.num_parameters == 4 * 3 + 3

    def test_wrong_input_size_rejected(self, rng):
        layer = FullyConnectedLayer.from_shape(4, 3, rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_parameter_roundtrip(self, rng):
        layer = FullyConnectedLayer.from_shape(4, 3, rng)
        flat = layer.get_parameters()
        other = FullyConnectedLayer(np.zeros((3, 4)), np.zeros(3))
        other.set_parameters(flat)
        np.testing.assert_allclose(other.weights, layer.weights)
        np.testing.assert_allclose(other.biases, layer.biases)

    def test_set_parameters_wrong_size_rejected(self, rng):
        layer = FullyConnectedLayer.from_shape(4, 3, rng)
        with pytest.raises(LayerError):
            layer.set_parameters(np.zeros(7))

    def test_backward_input_is_transpose(self, rng):
        layer = FullyConnectedLayer.from_shape(4, 3, rng)
        grad_output = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            layer.backward_input(grad_output, None), grad_output @ layer.weights
        )

    def test_parameter_jacobian_structure(self, rng):
        layer = FullyConnectedLayer.from_shape(3, 2, rng)
        downstream = rng.normal(size=(4, 2))
        u = rng.normal(size=3)
        (jacobian,) = layer.batch_parameter_jacobian(downstream[None, :, :], u[None, :])
        assert jacobian.shape == (4, layer.num_parameters)
        # Column for weight (k, l) must equal downstream[:, k] * u[l].
        np.testing.assert_allclose(jacobian[:, 0 * 3 + 1], downstream[:, 0] * u[1])
        np.testing.assert_allclose(jacobian[:, 1 * 3 + 2], downstream[:, 1] * u[2])
        # Bias columns equal downstream columns.
        np.testing.assert_allclose(jacobian[:, 6:], downstream)

    def test_backward_parameters_matches_finite_differences(self, rng):
        layer = FullyConnectedLayer.from_shape(3, 2, rng)
        batch = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss() -> float:
            return float(np.sum((layer.forward(batch) - target) ** 2) / 2)

        grad_output = layer.forward(batch) - target
        analytic = layer.backward_parameters(grad_output, batch)
        params = layer.get_parameters()
        numeric = np.zeros_like(params)
        eps = 1e-6
        for index in range(params.size):
            perturbed = params.copy()
            perturbed[index] += eps
            layer.set_parameters(perturbed)
            up = loss()
            perturbed[index] -= 2 * eps
            layer.set_parameters(perturbed)
            down = loss()
            layer.set_parameters(params)
            numeric[index] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestActivationLayers:
    @pytest.mark.parametrize(
        "layer",
        [ReLULayer(4), LeakyReLULayer(4, 0.1), HardTanhLayer(4), TanhLayer(4), SigmoidLayer(4)],
        ids=["relu", "leaky", "hardtanh", "tanh", "sigmoid"],
    )
    def test_shapes_and_kind(self, layer):
        assert layer.kind is LayerKind.ACTIVATION
        assert layer.input_size == layer.output_size == 4
        assert layer.num_parameters == 0
        output = layer.forward(np.linspace(-2, 2, 4)[None, :])
        assert output.shape == (1, 4)

    def test_relu_values(self):
        layer = ReLULayer(3)
        np.testing.assert_allclose(
            layer.forward(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]]
        )

    def test_leaky_relu_values(self):
        layer = LeakyReLULayer(2, negative_slope=0.1)
        np.testing.assert_allclose(layer.forward(np.array([[-1.0, 2.0]])), [[-0.1, 2.0]])

    def test_hardtanh_clips(self):
        layer = HardTanhLayer(3)
        np.testing.assert_allclose(
            layer.forward(np.array([[-3.0, 0.5, 3.0]])), [[-1.0, 0.5, 1.0]]
        )

    def test_sigmoid_stable_for_large_inputs(self):
        layer = SigmoidLayer(2)
        output = layer.forward(np.array([[1000.0, -1000.0]]))
        assert np.all(np.isfinite(output))
        np.testing.assert_allclose(output, [[1.0, 0.0]], atol=1e-12)

    def test_piecewise_linear_flags(self):
        assert ReLULayer(1).is_piecewise_linear
        assert LeakyReLULayer(1).is_piecewise_linear
        assert HardTanhLayer(1).is_piecewise_linear
        assert not TanhLayer(1).is_piecewise_linear
        assert not SigmoidLayer(1).is_piecewise_linear

    def test_breakpoints(self):
        assert ReLULayer(1).piecewise_breakpoints() == (0.0,)
        assert HardTanhLayer(1).piecewise_breakpoints() == (-1.0, 1.0)
        with pytest.raises(LayerError):
            FlattenLayer(1).piecewise_breakpoints()

    def test_kind_specific_jacobian_methods_reject_other_kinds(self, rng):
        stack = np.zeros((1, 2, 3))
        with pytest.raises(LayerError):
            ReLULayer(3).batch_parameter_jacobian(stack, np.zeros((1, 3)))
        with pytest.raises(LayerError):
            FullyConnectedLayer.from_shape(3, 3, rng).batch_linearize_backward(
                stack, np.zeros((1, 3))
            )

    @pytest.mark.parametrize(
        "layer",
        [ReLULayer(5), LeakyReLULayer(5), HardTanhLayer(5), TanhLayer(5), SigmoidLayer(5)],
        ids=["relu", "leaky", "hardtanh", "tanh", "sigmoid"],
    )
    def test_linearization_exact_at_center(self, layer, rng):
        preactivation = rng.normal(size=(1, 5)) * 2.0
        np.testing.assert_allclose(
            layer.decoupled_forward(preactivation, preactivation),
            layer.forward(preactivation),
            atol=1e-9,
        )

    def test_relu_linearization_masks(self):
        layer = ReLULayer(3)
        activation = np.array([[-1.0, 2.0, -0.5]])
        values = np.array([[10.0, 10.0, 10.0]])
        np.testing.assert_allclose(layer.decoupled_forward(activation, values), [[0.0, 10.0, 0.0]])

    def test_decoupled_forward_matches_linearize(self, rng):
        layer = TanhLayer(4)
        activation_preactivation = rng.normal(size=(3, 4))
        value_preactivation = rng.normal(size=(3, 4))
        batched = layer.decoupled_forward(activation_preactivation, value_preactivation)
        for row in range(3):
            # Linearize[tanh, z0](z) = tanh(z0) + tanh'(z0) · (z - z0).
            z0 = activation_preactivation[row]
            slope = 1.0 - np.tanh(z0) ** 2
            np.testing.assert_allclose(
                batched[row], np.tanh(z0) + slope * (value_preactivation[row] - z0)
            )

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ReLULayer(0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_backward_input_matches_derivative(self, seed):
        rng = np.random.default_rng(seed)
        layer = TanhLayer(4)
        point = rng.normal(size=(1, 4))
        grad = layer.backward_input(np.ones((1, 4)), point)
        numeric = np.zeros(4)
        eps = 1e-6
        for index in range(4):
            up, down = point.copy(), point.copy()
            up[0, index] += eps
            down[0, index] -= eps
            numeric[index] = (layer.forward(up) - layer.forward(down))[0, index] / (2 * eps)
        np.testing.assert_allclose(grad[0], numeric, atol=1e-6)


def _conv(kernel_h: int = 2, **geometry) -> Conv2DLayer:
    """A one-channel conv over a 4×4 input with the given geometry."""
    return Conv2DLayer(np.ones((1, 1, kernel_h, 2)), input_height=4, input_width=4, **geometry)


class TestConvGeometry:
    def test_conv_output_size(self):
        assert conv_output_size(16, 3, 1, 1) == 16
        assert conv_output_size(16, 2, 2, 0) == 8
        with pytest.raises(LayerError):
            conv_output_size(5, 2, 2, 0)

    def test_window_indices_shapes(self):
        rows, cols, out_h, out_w = window_indices(4, 4, 2, 2, 2, 0)
        assert out_h == out_w == 2
        assert rows.shape == cols.shape == (4, 4)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: _conv(stride=0), id="conv-stride-0"),
            pytest.param(lambda: _conv(stride=-1), id="conv-stride-negative"),
            pytest.param(lambda: _conv(padding=-1), id="conv-padding-negative"),
            pytest.param(lambda: _conv(kernel_h=0), id="conv-kernel-0"),
            pytest.param(lambda: MaxPool2DLayer(1, 4, 4, pool_size=0), id="maxpool-size-0"),
            pytest.param(lambda: MaxPool2DLayer(1, 4, 4, stride=0), id="maxpool-stride-0"),
            pytest.param(lambda: MaxPool2DLayer(1, 4, 4, stride=-2), id="maxpool-stride-negative"),
            pytest.param(lambda: AvgPool2DLayer(1, 4, 4, pool_size=-1), id="avgpool-size-negative"),
        ],
    )
    def test_invalid_geometry_rejected_at_construction(self, build):
        with pytest.raises(LayerError):
            build()


class TestConv2DLayer:
    def make_layer(self, rng, **kwargs):
        defaults = dict(input_height=5, input_width=5, padding=1, rng=rng)
        defaults.update(kwargs)
        return Conv2DLayer.from_shape(2, 3, 3, **defaults)

    def test_shapes(self, rng):
        layer = self.make_layer(rng)
        assert layer.input_size == 2 * 5 * 5
        assert layer.output_size == 3 * 5 * 5
        assert layer.kind is LayerKind.PARAMETERIZED
        assert layer.num_parameters == 3 * 2 * 3 * 3 + 3

    def test_forward_matches_naive_convolution(self, rng):
        layer = self.make_layer(rng)
        image = rng.normal(size=(1, 2, 5, 5))
        output = layer.forward(image.reshape(1, -1)).reshape(3, 5, 5)
        padded = np.pad(image[0], ((0, 0), (1, 1), (1, 1)))
        for out_channel in range(3):
            for row in range(5):
                for col in range(5):
                    patch = padded[:, row:row + 3, col:col + 3]
                    expected = np.sum(patch * layer.kernels[out_channel]) + layer.biases[out_channel]
                    assert output[out_channel, row, col] == pytest.approx(expected)

    def test_wrong_input_size_rejected(self, rng):
        layer = self.make_layer(rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 10)))

    def test_kernel_shape_validated(self):
        with pytest.raises(ShapeError):
            Conv2DLayer(np.zeros((2, 3, 3)), input_height=5, input_width=5)

    def test_parameter_roundtrip(self, rng):
        layer = self.make_layer(rng)
        flat = layer.get_parameters()
        layer.set_parameters(flat * 2.0)
        np.testing.assert_allclose(layer.get_parameters(), flat * 2.0)

    def test_backward_input_matches_finite_differences(self, rng):
        layer = self.make_layer(rng, input_height=4, input_width=4)
        point = rng.normal(size=(1, layer.input_size))
        weights = rng.normal(size=(1, layer.output_size))
        analytic = layer.backward_input(weights, point)[0]
        numeric = np.zeros(layer.input_size)
        eps = 1e-6
        for index in range(layer.input_size):
            up, down = point.copy(), point.copy()
            up[0, index] += eps
            down[0, index] -= eps
            difference = (layer.forward(up) - layer.forward(down))[0]
            numeric[index] = float(weights[0] @ difference) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_parameter_jacobian_matches_finite_differences(self, rng):
        layer = Conv2DLayer.from_shape(1, 2, 2, input_height=3, input_width=3, rng=rng)
        downstream = rng.normal(size=(2, layer.output_size))
        u = rng.normal(size=layer.input_size)
        (analytic,) = layer.batch_parameter_jacobian(downstream[None, :, :], u[None, :])
        params = layer.get_parameters()
        numeric = np.zeros_like(analytic)
        eps = 1e-6
        for index in range(params.size):
            perturbed = params.copy()
            perturbed[index] += eps
            layer.set_parameters(perturbed)
            up = downstream @ layer.forward(u[None, :])[0]
            perturbed[index] -= 2 * eps
            layer.set_parameters(perturbed)
            down = downstream @ layer.forward(u[None, :])[0]
            layer.set_parameters(params)
            numeric[:, index] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_stride_two_output_geometry(self, rng):
        layer = Conv2DLayer.from_shape(
            1, 2, 2, input_height=4, input_width=4, stride=2, padding=0, rng=rng
        )
        assert layer.output_height == layer.output_width == 2
        assert layer.forward(np.zeros((1, 16))).shape == (1, 2 * 4)


class TestPoolingLayers:
    def test_maxpool_forward(self):
        layer = MaxPool2DLayer(1, 4, 4, pool_size=2)
        image = np.arange(16.0).reshape(1, -1)
        output = layer.forward(image).reshape(2, 2)
        np.testing.assert_allclose(output, [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_kind_and_linearization(self):
        layer = MaxPool2DLayer(1, 4, 4, pool_size=2)
        assert layer.kind is LayerKind.ACTIVATION
        assert layer.is_piecewise_linear
        preactivation = np.arange(16.0)[None, :]
        # The linearization selects the same entries max pooling selected.
        np.testing.assert_allclose(
            layer.decoupled_forward(preactivation, preactivation), layer.forward(preactivation)
        )
        # Applied to different values it still selects positions 5, 7, 13, 15.
        other = np.linspace(1.5, 0.0, 16)[None, :]
        np.testing.assert_allclose(
            layer.decoupled_forward(preactivation, other), other[:, [5, 7, 13, 15]]
        )

    def test_maxpool_decoupled_forward_uses_activation_argmax(self):
        layer = MaxPool2DLayer(1, 2, 2, pool_size=2)
        activation = np.array([[0.0, 10.0, 0.0, 0.0]])  # winner is index 1
        value = np.array([[5.0, -7.0, 3.0, 1.0]])
        np.testing.assert_allclose(layer.decoupled_forward(activation, value), [[-7.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2DLayer(1, 2, 2, pool_size=2)
        forward_input = np.array([[1.0, 4.0, 2.0, 3.0]])
        grad = layer.backward_input(np.array([[1.0]]), forward_input)
        np.testing.assert_allclose(grad, [[0.0, 1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("pool_size,stride,side", [(2, 2, 8), (3, 1, 7), (3, 2, 7)])
    def test_maxpool_backward_matches_per_row_loop(self, rng, pool_size, stride, side):
        # Overlapping windows (stride < pool size) route several outputs to
        # one input, and zeros mixed into the input make windows tie.
        layer = MaxPool2DLayer(2, side, side, pool_size=pool_size, stride=stride)
        forward_input = rng.normal(size=(5, layer.input_size))
        forward_input[rng.random(forward_input.shape) < 0.3] = 0.0
        grad_output = rng.normal(size=(5, layer.output_size))
        batched = layer.backward_input(grad_output, forward_input)
        expected = maxpool_backward_per_row(layer, grad_output, forward_input)
        assert batched.tobytes() == expected.tobytes()

    def test_avgpool_forward_and_kind(self):
        layer = AvgPool2DLayer(1, 4, 4, pool_size=2)
        assert layer.kind is LayerKind.STATIC
        image = np.arange(16.0).reshape(1, -1)
        output = layer.forward(image).reshape(2, 2)
        np.testing.assert_allclose(output, [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_backward_distributes_evenly(self):
        layer = AvgPool2DLayer(1, 2, 2, pool_size=2)
        grad = layer.backward_input(np.array([[4.0]]), np.zeros((1, 4)))
        np.testing.assert_allclose(grad, [[1.0, 1.0, 1.0, 1.0]])

    def test_global_avg_pool(self):
        layer = GlobalAvgPoolLayer(2, 2, 2)
        values = np.concatenate([np.full(4, 2.0), np.arange(4.0)])[None, :]
        np.testing.assert_allclose(layer.forward(values), [[2.0, 1.5]])
        grad = layer.backward_input(np.array([[4.0, 8.0]]), values)
        np.testing.assert_allclose(grad[0, :4], 1.0)
        np.testing.assert_allclose(grad[0, 4:], 2.0)

    def test_wrong_pool_input_size_rejected(self):
        layer = MaxPool2DLayer(1, 4, 4, pool_size=2)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 15)))


def _awkward_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws with ``+0.0``, ``-0.0``, repeated values (ties) and NaN mixed in."""
    values = rng.normal(size=shape)
    draw = rng.random(shape)
    values[draw < 0.15] = 0.0
    values[(draw >= 0.15) & (draw < 0.3)] = -0.0
    values[(draw >= 0.3) & (draw < 0.4)] = 1.0
    values[(draw >= 0.4) & (draw < 0.45)] = np.nan
    return values


def _side(out: int, kernel: int, stride: int, padding: int) -> int:
    """Input side length giving ``out`` output positions."""
    return (out - 1) * stride + kernel - 2 * padding


class TestStridedKernelOracleProperty:
    """Strided-view conv and pooling kernels against the gather/einsum oracles.

    Conv contractions run in BLAS, so they agree with the einsum to
    ``atol=1e-12``; the im2col copy, ``_col2im`` and every pooling kernel
    must match their index-gather oracles byte for byte, and every layer's
    forward must not depend on the batch height.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kernel_h=st.integers(1, 3),
        kernel_w=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
        in_channels=st.integers(1, 4),
        out_channels=st.integers(1, 4),
        out_h=st.integers(1, 4),
        out_w=st.integers(1, 4),
    )
    def test_conv_matches_einsum_oracle(
        self, seed, kernel_h, kernel_w, stride, padding, in_channels, out_channels, out_h, out_w
    ):
        height = _side(out_h, kernel_h, stride, padding)
        width = _side(out_w, kernel_w, stride, padding)
        assume(height >= 1 and width >= 1)
        rng = np.random.default_rng(seed)
        layer = Conv2DLayer(
            rng.normal(size=(out_channels, in_channels, kernel_h, kernel_w)),
            rng.normal(size=out_channels),
            input_height=height, input_width=width, stride=stride, padding=padding,
        )
        assert (layer.output_height, layer.output_width) == (out_h, out_w)
        batch = 5
        values = _awkward_values(rng, (batch, layer.input_size))
        assert layer._im2col(values).tobytes() == oracle.oracle_im2col(layer, values).tobytes()
        np.testing.assert_allclose(
            layer.forward(values), oracle.oracle_conv_forward(layer, values), atol=1e-12, rtol=0
        )
        finite = rng.normal(size=(batch, layer.input_size))
        grad_output = _awkward_values(rng, (batch, layer.output_size))
        np.testing.assert_allclose(
            layer.backward_input(grad_output, finite),
            oracle.oracle_conv_backward_input(layer, grad_output),
            atol=1e-12, rtol=0,
        )
        np.testing.assert_allclose(
            layer.backward_parameters(grad_output, finite),
            oracle.oracle_conv_backward_parameters(layer, grad_output, finite),
            atol=1e-12, rtol=0,
        )
        downstream = rng.normal(size=(batch, 3, layer.output_size))
        np.testing.assert_allclose(
            layer.batch_parameter_jacobian(downstream, values),
            oracle.oracle_conv_parameter_jacobian(layer, downstream, values),
            atol=1e-12, rtol=0,
        )
        grad_patches = _awkward_values(
            rng, (batch, in_channels * kernel_h * kernel_w, layer.num_positions)
        )
        assert (
            layer._col2im(grad_patches).tobytes()
            == oracle.oracle_col2im(layer, grad_patches).tobytes()
        )
        rows = np.concatenate([layer.forward(values[row : row + 1]) for row in range(batch)])
        assert layer.forward(values).tobytes() == rows.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        pool_size=st.integers(1, 3),
        stride=st.integers(1, 2),
        channels=st.integers(1, 4),
        out_h=st.integers(1, 4),
        out_w=st.integers(1, 4),
    )
    def test_pooling_matches_gather_oracle_bytes(
        self, seed, pool_size, stride, channels, out_h, out_w
    ):
        rng = np.random.default_rng(seed)
        height = _side(out_h, pool_size, stride, 0)
        width = _side(out_w, pool_size, stride, 0)
        batch = 5
        maxpool = MaxPool2DLayer(channels, height, width, pool_size=pool_size, stride=stride)
        avgpool = AvgPool2DLayer(channels, height, width, pool_size=pool_size, stride=stride)
        activation = _awkward_values(rng, (batch, maxpool.input_size))
        value = _awkward_values(rng, (batch, maxpool.input_size))
        grad_output = _awkward_values(rng, (batch, maxpool.output_size))
        checks = [
            (maxpool.forward(activation), oracle.oracle_maxpool_forward(maxpool, activation)),
            (
                maxpool._argmax_flat_indices_batch(activation),
                oracle.oracle_argmax_flat_indices(maxpool, activation),
            ),
            (
                maxpool.decoupled_forward(activation, value),
                oracle.oracle_maxpool_decoupled_forward(maxpool, activation, value),
            ),
            (avgpool.forward(activation), oracle.oracle_avgpool_forward(avgpool, activation)),
            (
                avgpool.backward_input(grad_output, activation),
                oracle.oracle_avgpool_backward_input(avgpool, grad_output),
            ),
        ]
        for actual, expected in checks:
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()
        for layer in (maxpool, avgpool):
            rows = np.concatenate(
                [layer.forward(activation[row : row + 1]) for row in range(batch)]
            )
            assert layer.forward(activation).tobytes() == rows.tobytes()


class TestReshapeLayers:
    def test_flatten_is_identity(self):
        layer = FlattenLayer(6)
        values = np.arange(6.0)[None, :]
        np.testing.assert_array_equal(layer.forward(values), values)
        np.testing.assert_array_equal(layer.backward_input(values, values), values)
        assert layer.kind is LayerKind.STATIC

    def test_flatten_rejects_bad_size(self):
        with pytest.raises(ValueError):
            FlattenLayer(0)

    def test_normalize_layer(self):
        layer = NormalizeLayer(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(layer.forward(np.array([[3.0, 6.0]])), [[1.0, 1.0]])
        np.testing.assert_allclose(
            layer.backward_input(np.array([[1.0, 1.0]]), None), [[0.5, 0.25]]
        )

    def test_normalize_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            NormalizeLayer(np.zeros(2), np.array([1.0, 0.0]))
