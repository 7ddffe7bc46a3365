"""Tests for the Network container, backprop, and SGD training."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import LayerError, ShapeError
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.nn.train import (
    SGDTrainer,
    TrainingConfig,
    cross_entropy_loss,
    network_gradients,
    softmax,
)
from tests.conftest import make_random_relu_network


class TestNetworkContainer:
    def test_layer_size_mismatch_rejected(self, rng):
        with pytest.raises(LayerError):
            Network(
                [FullyConnectedLayer.from_shape(2, 3, rng), FullyConnectedLayer.from_shape(4, 2, rng)]
            )

    def test_empty_network_rejected(self):
        with pytest.raises(LayerError):
            Network([])

    def test_toy_network_values(self, toy_network):
        assert toy_network.compute(np.array([0.5])) == pytest.approx(-0.5)
        assert toy_network.compute(np.array([1.5])) == pytest.approx(-1.0)

    def test_compute_accepts_vector_and_batch(self, toy_network):
        vector_output = toy_network.compute(np.array([0.5]))
        batch_output = toy_network.compute(np.array([[0.5], [1.5]]))
        assert vector_output.shape == (1,)
        assert batch_output.shape == (2, 1)

    def test_compute_rejects_wrong_size(self, toy_network):
        with pytest.raises(ShapeError):
            toy_network.compute(np.array([1.0, 2.0]))

    def test_layer_inputs_chain(self, random_relu_network, rng):
        batch = rng.normal(size=(3, random_relu_network.input_size))
        inputs = random_relu_network.layer_inputs(batch)
        assert len(inputs) == len(random_relu_network.layers) + 1
        np.testing.assert_allclose(inputs[-1], random_relu_network.compute(batch))

    def test_parameterized_indices(self, toy_network):
        assert toy_network.parameterized_layer_indices() == [0, 2]

    def test_num_parameters(self, toy_network):
        # First layer: 3 weights + 3 biases; second: 3 weights + 1 bias.
        assert toy_network.num_parameters == 10

    def test_predict_and_accuracy(self, rng):
        network = make_random_relu_network(rng, (4, 8, 3))
        batch = rng.normal(size=(10, 4))
        predictions = network.predict(batch)
        assert predictions.shape == (10,)
        assert network.accuracy(batch, predictions) == 1.0

    def test_accuracy_empty_set_rejected(self, random_relu_network):
        with pytest.raises(ShapeError):
            random_relu_network.accuracy(np.zeros((0, 4)), np.zeros(0))

    def test_copy_is_independent_under_set_parameters(self, toy_network):
        clone = toy_network.copy()
        with pytest.raises(ValueError, match="read-only"):
            clone.layers[0].weights[0, 0] = 99.0
        parameters = clone.layers[0].get_parameters()
        parameters[0] = 99.0
        clone.layers[0].set_parameters(parameters)
        assert clone.layers[0].weights[0, 0] == 99.0
        assert toy_network.layers[0].weights[0, 0] != 99.0

    def test_activation_pattern(self, toy_network):
        pattern = toy_network.activation_pattern(np.array([0.5]))
        assert len(pattern) == 1
        np.testing.assert_array_equal(pattern[0], [False, True, False])

    def test_is_piecewise_linear(self, toy_network, random_tanh_network):
        assert toy_network.is_piecewise_linear()
        assert not random_tanh_network.is_piecewise_linear()

    def test_save_and_load_parameters(self, toy_network, tmp_path):
        path = tmp_path / "params.npz"
        toy_network.save_parameters(path)
        clone = toy_network.copy()
        clone.layers[0].set_parameters(np.zeros(clone.layers[0].num_parameters))
        clone.load_parameters(path)
        np.testing.assert_allclose(clone.layers[0].weights, toy_network.layers[0].weights)

    def test_get_set_all_parameters(self, toy_network):
        parameters = toy_network.get_all_parameters()
        clone = toy_network.copy()
        clone.layers[0].set_parameters(np.zeros(clone.layers[0].num_parameters))
        clone.set_all_parameters(parameters)
        np.testing.assert_allclose(
            clone.compute(np.array([0.7])), toy_network.compute(np.array([0.7]))
        )

    def test_repr_lists_layers(self, toy_network):
        assert "FullyConnectedLayer" in repr(toy_network)


class TestLossFunctions:
    def test_softmax_sums_to_one(self, rng):
        logits = rng.normal(size=(5, 7))
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5))

    def test_softmax_stable_for_large_logits(self):
        probabilities = softmax(np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(probabilities))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, grad = cross_entropy_loss(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(grad, softmax(logits) - np.array([[1.0, 0.0, 0.0]]))

    def test_cross_entropy_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 3])
        _, grad = cross_entropy_loss(logits, labels)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for row in range(3):
            for col in range(4):
                up, down = logits.copy(), logits.copy()
                up[row, col] += eps
                down[row, col] -= eps
                numeric[row, col] = (
                    cross_entropy_loss(up, labels)[0] - cross_entropy_loss(down, labels)[0]
                ) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-5)


class TestBackpropagation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        network = make_random_relu_network(rng, (3, 5, 4))
        batch = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        _, gradients = network_gradients(network, batch, labels)
        eps = 1e-6
        for index, gradient in gradients.items():
            layer = network.layers[index]
            params = layer.get_parameters()
            sample_columns = np.linspace(0, params.size - 1, min(10, params.size)).astype(int)
            for column in sample_columns:
                perturbed = params.copy()
                perturbed[column] += eps
                layer.set_parameters(perturbed)
                up, _ = cross_entropy_loss(network.compute(batch), labels)
                perturbed[column] -= 2 * eps
                layer.set_parameters(perturbed)
                down, _ = cross_entropy_loss(network.compute(batch), labels)
                layer.set_parameters(params)
                assert gradient[column] == pytest.approx((up - down) / (2 * eps), abs=1e-4)

    def test_only_layer_restricts_gradients(self, rng):
        network = make_random_relu_network(rng, (3, 5, 4))
        batch = rng.normal(size=(4, 3))
        labels = rng.integers(0, 4, size=4)
        _, gradients = network_gradients(network, batch, labels, only_layer=2)
        assert list(gradients.keys()) == [2]


class TestSGDTrainer:
    def test_training_reduces_loss_and_reaches_accuracy(self, rng):
        # A linearly-separable two-class problem in 2-D.
        inputs = np.vstack(
            [rng.normal([2.0, 2.0], 0.3, size=(30, 2)), rng.normal([-2.0, -2.0], 0.3, size=(30, 2))]
        )
        labels = np.array([0] * 30 + [1] * 30)
        network = make_random_relu_network(rng, (2, 8, 2))
        trainer = SGDTrainer(network, TrainingConfig(learning_rate=0.1, epochs=20, seed=0))
        history = trainer.train(inputs, labels)
        assert history.losses[-1] < history.losses[0]
        assert history.final_accuracy >= 0.95

    def test_stop_at_full_accuracy(self, rng):
        inputs = np.vstack(
            [rng.normal([3.0, 3.0], 0.1, size=(10, 2)), rng.normal([-3.0, -3.0], 0.1, size=(10, 2))]
        )
        labels = np.array([0] * 10 + [1] * 10)
        network = make_random_relu_network(rng, (2, 8, 2))
        trainer = SGDTrainer(network, TrainingConfig(learning_rate=0.2, epochs=200, seed=0))
        history = trainer.train(inputs, labels, stop_at_full_accuracy=True)
        assert history.final_accuracy == 1.0
        assert len(history.losses) < 200

    def test_only_layer_training_leaves_other_layers_unchanged(self, rng):
        network = make_random_relu_network(rng, (3, 6, 2))
        frozen_before = network.layers[0].get_parameters().copy()
        tuned_before = network.layers[2].get_parameters().copy()
        trainer = SGDTrainer(
            network, TrainingConfig(learning_rate=0.1, epochs=3, only_layer=2, seed=0)
        )
        trainer.train(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
        np.testing.assert_array_equal(network.layers[0].get_parameters(), frozen_before)
        assert not np.allclose(network.layers[2].get_parameters(), tuned_before)

    def test_weight_decay_shrinks_parameters(self, rng):
        network = make_random_relu_network(rng, (2, 4, 2))
        config = TrainingConfig(learning_rate=0.01, epochs=5, weight_decay=0.5, momentum=0.0, seed=0)
        norm_before = np.linalg.norm(network.layers[0].get_parameters())
        SGDTrainer(network, config).train(np.zeros((8, 2)), np.zeros(8, dtype=int))
        norm_after = np.linalg.norm(network.layers[0].get_parameters())
        assert norm_after < norm_before

    def test_training_history_empty_defaults(self):
        from repro.nn.train import TrainingHistory

        history = TrainingHistory()
        assert np.isnan(history.final_loss)
        assert np.isnan(history.final_accuracy)
