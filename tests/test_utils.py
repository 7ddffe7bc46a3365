"""Tests for repro.utils (rng, validation, timing, serialization)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.utils.rng import ensure_rng
from repro.utils.serialization import (
    config_digest,
    default_cache_dir,
    load_arrays,
    save_arrays,
)
from repro.utils.timing import TimeBudget, wall_cpu_now
from repro.utils.validation import (
    check_finite,
    check_matrix,
    check_positive_int,
    check_vector,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(7).integers(0, 1000) == ensure_rng(7).integers(0, 1000)

    def test_different_seeds_differ(self):
        draws_a = ensure_rng(1).integers(0, 2**31, size=8)
        draws_b = ensure_rng(2).integers(0, 2**31, size=8)
        assert not np.array_equal(draws_a, draws_b)

    def test_generator_passed_through(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestValidation:
    def test_check_vector_accepts_list(self):
        result = check_vector([1, 2, 3])
        assert result.dtype == np.float64
        assert result.shape == (3,)

    def test_check_vector_rejects_matrix(self):
        with pytest.raises(ShapeError):
            check_vector(np.zeros((2, 2)))

    def test_check_vector_size_mismatch(self):
        with pytest.raises(ShapeError):
            check_vector([1.0, 2.0], size=3)

    def test_check_matrix_accepts_nested_list(self):
        result = check_matrix([[1, 2], [3, 4]])
        assert result.shape == (2, 2)

    def test_check_matrix_shape_enforced(self):
        with pytest.raises(ShapeError):
            check_matrix(np.zeros((2, 3)), rows=3)
        with pytest.raises(ShapeError):
            check_matrix(np.zeros((2, 3)), cols=2)

    def test_check_matrix_rejects_vector(self):
        with pytest.raises(ShapeError):
            check_matrix([1.0, 2.0])

    def test_check_finite(self):
        with pytest.raises(ShapeError):
            check_finite(np.array([1.0, np.nan]))
        array = np.array([1.0, 2.0])
        assert check_finite(array) is array

    def test_check_positive_int(self):
        assert check_positive_int(5) == 5
        with pytest.raises(ValueError):
            check_positive_int(0)
        with pytest.raises(ValueError):
            check_positive_int(2.5)


class TestWallCpuNow:
    def test_wall_cpu_now_returns_monotonic_pair(self):
        wall_a, cpu_a = wall_cpu_now()
        wall_b, cpu_b = wall_cpu_now()
        assert wall_b >= wall_a
        assert cpu_b >= cpu_a


class TestTimeBudget:
    def test_unlimited_budget_never_exhausts(self):
        budget = TimeBudget(None)
        assert not budget.exhausted()
        assert budget.remaining() is None

    def test_zero_budget_exhausts_immediately(self):
        budget = TimeBudget(0.0)
        assert budget.exhausted()
        assert budget.remaining() == 0.0

    def test_budget_exhausts_after_elapsing(self):
        budget = TimeBudget(0.02)
        assert not budget.exhausted()
        time.sleep(0.03)
        assert budget.exhausted()
        assert budget.remaining() == 0.0

    def test_remaining_decreases_monotonically(self):
        budget = TimeBudget(10.0)
        first = budget.remaining()
        time.sleep(0.01)
        second = budget.remaining()
        assert second < first <= 10.0


class TestSerialization:
    def test_config_digest_stable_and_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_config_digest_differs(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_save_and_load_roundtrip(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = tmp_path / "sub" / "arrays.npz"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_array_equal(loaded["w"], arrays["w"])

    def test_roundtrip_preserves_dtype_and_shape(self, tmp_path):
        arrays = {"ints": np.arange(4), "floats": np.linspace(0, 1, 5)}
        path = tmp_path / "arrays.npz"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert loaded["ints"].dtype == arrays["ints"].dtype
        assert loaded["floats"].shape == (5,)

    def test_config_digest_handles_non_json_values(self):
        # Paths and tuples go through the default=str fallback deterministically.
        from pathlib import Path

        first = config_digest({"path": Path("/tmp/x"), "size": (3, 4)})
        second = config_digest({"size": (3, 4), "path": Path("/tmp/x")})
        assert first == second
        assert len(first) == 16

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom-cache"))
        assert default_cache_dir() == tmp_path / "custom-cache"

    def test_default_cache_dir_without_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = default_cache_dir()
        assert path.name == "repro-prdnn"
        assert path.is_absolute()

    def test_cache_dir_override_reaches_model_zoo(self, monkeypatch, tmp_path):
        # The driver checkpoints and the zoo cache must both respect the
        # override so CI sandboxes never write to $HOME.
        from repro.models.zoo import ModelZoo

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "zoo"))
        zoo = ModelZoo()
        path = zoo._cache_path("unit", {"a": 1})
        assert path.parent == tmp_path / "zoo"


class TestNetworkSerialization:
    def test_encode_decode_round_trip(self, toy_network):
        from repro.utils.serialization import decode_network, encode_network

        restored = decode_network(encode_network(toy_network))
        points = np.linspace(-2.0, 2.0, 7)[:, None]
        np.testing.assert_array_equal(
            restored.compute(points), toy_network.compute(points)
        )

    def test_fingerprint_stable_across_copies(self, toy_network):
        from repro.utils.serialization import network_fingerprint

        assert network_fingerprint(toy_network) == network_fingerprint(
            toy_network.copy()
        )

    def test_fingerprint_sees_parameter_free_architecture(self, rng):
        """Same weights, different activation layer → different fingerprint."""
        from repro.nn.activations import HardTanhLayer, LeakyReLULayer, ReLULayer
        from repro.nn.linear import FullyConnectedLayer
        from repro.nn.network import Network
        from repro.utils.serialization import network_fingerprint

        first = FullyConnectedLayer.from_shape(2, 4, rng)
        second = FullyConnectedLayer.from_shape(4, 2, rng)

        def with_activation(activation):
            return Network([first.copy(), activation, second.copy()])

        relu = network_fingerprint(with_activation(ReLULayer(4)))
        hardtanh = network_fingerprint(with_activation(HardTanhLayer(4)))
        assert relu != hardtanh
        # Scalar layer configuration matters too (LeakyReLU slope).
        gentle = network_fingerprint(with_activation(LeakyReLULayer(4, 0.01)))
        steep = network_fingerprint(with_activation(LeakyReLULayer(4, 0.5)))
        assert gentle != steep

    def test_fingerprint_sees_static_layer_array_state(self, rng):
        """Same weights, different NormalizeLayer stats → different fingerprint."""
        from repro.nn.linear import FullyConnectedLayer
        from repro.nn.network import Network
        from repro.nn.reshape import NormalizeLayer
        from repro.utils.serialization import network_fingerprint

        dense = FullyConnectedLayer.from_shape(2, 3, rng)

        def with_normalization(means, stds):
            return Network([NormalizeLayer(means, stds), dense.copy()])

        identity = network_fingerprint(with_normalization([0.0, 0.0], [1.0, 1.0]))
        shifted = network_fingerprint(with_normalization([5.0, -3.0], [2.0, 7.0]))
        assert identity != shifted

    def test_fingerprint_covers_ddnn_channels(self, toy_network):
        from repro.core.ddnn import DecoupledNetwork
        from repro.utils.serialization import network_fingerprint

        ddnn = DecoupledNetwork.from_network(toy_network)
        base = network_fingerprint(ddnn)
        layer_index = ddnn.repairable_layer_indices()[0]
        edited = ddnn.with_parameter_delta(
            layer_index,
            np.full_like(ddnn.value.layers[layer_index].get_parameters(), 0.25),
        )
        assert network_fingerprint(edited) != base
