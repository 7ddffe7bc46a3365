"""Tests for the frozen-prefix activation cache (repro.core.prefix_cache).

* the driver evaluates the layers below the repaired one once per run, and
  a fresh driver evaluates them again (no state survives a run);
* a hit is never stale: any change to a prefix parameter, in either
  channel, falls back to the full layer loop, while a change to the
  repaired layer itself keeps hits valid;
* isolation: pickles carry no binding, batches pinned to other activation
  points are cached separately, the byte budget is honoured, and after
  ``close`` every network bound to the cache (or derived from one that was)
  evaluates uncached;
* frozen batches (a verifier's stacked points and their views) are hashed
  once per identity, any other batch on every lookup, with the same hits
  and misses;
* exactness on a conv/max-pool network, including inputs where ReLU and
  max-pooling cannot share the two channels (``-0.0``, NaN).
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

import repro.core.prefix_cache as prefix_cache
from repro.core.ddnn import DecoupledNetwork
from repro.core.prefix_cache import PrefixCache
from repro.experiments.task1_imagenet import (
    classifier_perturbation_workload,
    driver_certified_repair,
)
from repro.models.squeezenet_mini import build_mini_squeezenet
from repro.nn.activations import ReLULayer
from repro.nn.layer import LayerKind
from repro.nn.network import Network
from repro.nn.pooling import MaxPool2DLayer
from repro.utils.rng import ensure_rng
from repro.utils.validation import remember_frozen
from tests.conftest import make_random_relu_network

INDEX_ATTRIBUTE = "_test_layer_index"


def uncached_compute(ddnn, values, activation_values=None) -> np.ndarray:
    """The DDNN layer loop, written out here so no cache can be involved."""
    current_value = np.atleast_2d(np.asarray(values, dtype=np.float64))
    current_activation = (
        current_value
        if activation_values is None
        else np.atleast_2d(np.asarray(activation_values, dtype=np.float64))
    )
    for act_layer, val_layer in zip(ddnn.activation.layers, ddnn.value.layers):
        if act_layer.kind is LayerKind.ACTIVATION:
            current_activation, current_value = (
                act_layer.forward(current_activation),
                act_layer.decoupled_forward(current_activation, current_value),
            )
        else:
            current_activation = act_layer.forward(current_activation)
            current_value = val_layer.forward(current_value)
    return current_value


def fc_setup(seed: int = 0, num_points: int = 24):
    """A random ReLU DDNN, a bound cache for its last layer, and a batch."""
    rng = ensure_rng(seed)
    ddnn = DecoupledNetwork.from_network(make_random_relu_network(rng, (4, 10, 6, 3)))
    layer = ddnn.repairable_layer_indices()[-1]
    cache = PrefixCache(ddnn, layer)
    cache.bind(ddnn)
    points = rng.uniform(-1.0, 1.0, size=(num_points, 4))
    return ddnn, cache, points


def nudge(layer) -> None:
    parameters = layer.get_parameters()
    parameters[0] = np.nextafter(parameters[0], np.inf)
    layer.set_parameters(parameters)


class TestPrefixComputedOncePerRun:
    def test_each_prefix_layer_sees_every_point_once_per_run(self, monkeypatch):
        workload = classifier_perturbation_workload(64, side=8, seed=1)
        classifier = workload.classifier_layer
        for index, layer in enumerate(workload.buggy.layers):
            setattr(layer, INDEX_ATTRIBUTE, index)
        rows: Counter[int] = Counter()

        def counting(function):
            def wrapped(layer, *args):
                index = getattr(layer, INDEX_ATTRIBUTE, None)
                if index is not None and index < classifier:
                    rows[index] += np.atleast_2d(args[-1]).shape[0]
                return function(layer, *args)

            return wrapped

        for cls in {type(layer) for layer in workload.buggy.layers}:
            for method in ("forward", "decoupled_forward"):
                monkeypatch.setattr(cls, method, counting(getattr(cls, method)))

        expected = {index: workload.num_points for index in range(classifier)}
        for _ in range(2):  # a second, fresh driver computes the prefix again
            rows.clear()
            report, driver = driver_certified_repair(workload)
            assert report.status == "certified"
            assert report.num_rounds == 2
            assert dict(rows) == expected
            # Nothing the run returns still holds features ...
            cache = report.network.prefix_cache
            assert cache is driver.base.prefix_cache is driver._session.ddnn.prefix_cache
            assert len(cache) == 0 and cache.nbytes == 0
            # ... or evaluates cached: both channels' prefixes run again.
            rows.clear()
            report.network.compute(workload.points)
            assert dict(rows) == {index: 2 * count for index, count in expected.items()}
            assert len(cache) == 0
            # The caller's network never saw the cache.
            assert not hasattr(workload.buggy, "prefix_cache")


class TestInvalidation:
    @pytest.mark.parametrize("channel", ["activation", "value"])
    @pytest.mark.parametrize("prefix_layer", [0, 2])
    def test_prefix_change_in_either_channel_is_never_a_stale_hit(
        self, channel, prefix_layer
    ):
        ddnn, cache, points = fc_setup()
        before = ddnn.compute(points)
        assert len(cache) == 1
        layer = getattr(ddnn, channel).layers[prefix_layer]
        layer.set_parameters(-layer.get_parameters())
        after = ddnn.compute(points)
        assert after.tobytes() == uncached_compute(ddnn, points).tobytes()
        assert after.tobytes() != before.tobytes()
        # One ulp is a different prefix too: the comparison is by bytes.
        layer.set_parameters(-layer.get_parameters())
        nudge(layer)
        ddnn.compute(points)
        assert cache.hits == 0

    def test_repaired_layer_change_keeps_hits_valid(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        ddnn = ddnn.with_parameter_delta(cache.layer_index, np.full(
            ddnn.value.layers[cache.layer_index].num_parameters, 0.125
        ))
        repaired = ddnn.compute(points)
        assert cache.hits == 1 and cache.misses == 1
        assert repaired.tobytes() == uncached_compute(ddnn, points).tobytes()

    def test_copies_of_the_prefix_hit_by_bytes_not_identity(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        twin = cache.bind(DecoupledNetwork(ddnn.activation.copy(), ddnn.value.copy()))
        assert twin.compute(points).tobytes() == ddnn.compute(points).tobytes()
        assert cache.hits == 2
        # Rebuilt layers (new arrays, no memoized digest) with the same bytes.
        rebuilt = DecoupledNetwork(ddnn.activation.copy(), ddnn.value.copy())
        for channel in (rebuilt.activation, rebuilt.value):
            for index in channel.parameterized_layer_indices():
                layer = channel.layers[index]
                layer.set_parameters(layer.get_parameters())
        assert cache.bind(rebuilt).compute(points).tobytes() == twin.compute(points).tobytes()
        assert cache.hits == 4

    def test_derived_networks_inherit_the_cache(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        derived = ddnn.with_parameter_delta(0, np.ones(ddnn.value.layers[0].num_parameters))
        assert derived.prefix_cache is cache
        # A derived network whose *prefix* changed evaluates uncached.
        assert derived.compute(points).tobytes() == uncached_compute(derived, points).tobytes()
        assert cache.hits == 0 and cache.misses == 1

    def test_jacobian_below_the_cached_layer_runs_uncached(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        fresh = DecoupledNetwork(ddnn.activation.copy(), ddnn.value.copy())
        outputs, jacobians = ddnn.batch_parameter_jacobian(0, points)
        expected_outputs, expected_jacobians = fresh.batch_parameter_jacobian(0, points)
        assert outputs.tobytes() == expected_outputs.tobytes()
        assert jacobians.tobytes() == expected_jacobians.tobytes()

    def test_traces_start_at_the_cached_layer(self):
        ddnn, cache, points = fc_setup()
        fresh = DecoupledNetwork(ddnn.activation.copy(), ddnn.value.copy())
        activations, values = ddnn.batch_channel_traces(points)
        expected_activations, expected_values = fresh.batch_channel_traces(points)
        layer = cache.layer_index
        assert activations[:layer] == [None] * layer
        assert values[:layer] == [None] * layer
        for got, expected in zip(
            activations[layer:] + values[layer:],
            expected_activations[layer:] + expected_values[layer:],
        ):
            assert got.tobytes() == expected.tobytes()


class TestIsolation:
    def test_pickles_carry_no_binding(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        assert ddnn.prefix_cache is cache
        restored = pickle.loads(pickle.dumps(ddnn))
        assert restored.prefix_cache is None
        unbound = DecoupledNetwork(ddnn.activation, ddnn.value)
        assert len(pickle.dumps(ddnn)) == len(pickle.dumps(unbound))
        assert restored.compute(points).tobytes() == ddnn.compute(points).tobytes()

    def test_pinned_activation_batches_are_cached_separately(self):
        ddnn, cache, points = fc_setup()
        pinned = [np.roll(points, shift, axis=0) for shift in (1, 2)]
        for activations in pinned:
            result = ddnn.compute(points, activations)
            assert result.tobytes() == uncached_compute(ddnn, points, activations).tobytes()
        assert len(cache) == 2 and cache.hits == 0
        # The same pins again hit their own entries.
        for activations in pinned:
            result = ddnn.compute(points, activations.copy())
            assert result.tobytes() == uncached_compute(ddnn, points, activations).tobytes()
        assert len(cache) == 2 and cache.hits == 2

    def test_activation_rows_equal_to_values_count_as_none(self):
        ddnn, cache, points = fc_setup()
        plain = ddnn.compute(points)
        pinned_to_self = ddnn.compute(points, points.copy())
        assert pinned_to_self.tobytes() == plain.tobytes()
        assert len(cache) == 1 and cache.hits == 1

    def test_different_batches_of_the_same_rows_are_different_keys(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        ddnn.compute(points[:12])
        assert len(cache) == 2 and cache.hits == 0

    def test_byte_budget_recomputes_instead_of_caching(self):
        ddnn, _, points = fc_setup()
        cache = PrefixCache(ddnn, ddnn.repairable_layer_indices()[-1], max_bytes=64)
        cache.bind(ddnn)
        for _ in range(2):
            assert ddnn.compute(points).tobytes() == uncached_compute(ddnn, points).tobytes()
        assert len(cache) == 0 and cache.nbytes == 0 and cache.misses == 2

    def test_batches_too_small_to_pay_for_a_lookup_skip_the_cache(self):
        ddnn, cache, points = fc_setup()
        for rows in (1, 2):
            result = ddnn.compute(points[:rows])
            assert result.tobytes() == uncached_compute(ddnn, points[:rows]).tobytes()
        assert len(cache) == 0 and cache.hits == cache.misses == 0

    def test_close_drops_features_and_declines_lookups(self):
        ddnn, cache, points = fc_setup()
        twin = cache.bind(DecoupledNetwork(ddnn.activation, ddnn.value))
        derived = ddnn.with_parameter_delta(
            cache.layer_index, np.ones(ddnn.value.layers[cache.layer_index].num_parameters)
        )
        ddnn.compute(points)
        assert cache.nbytes > 0
        cache.close()
        assert len(cache) == 0 and cache.nbytes == 0
        for network in (ddnn, twin, derived):
            result = network.compute(points)
            assert result.tobytes() == uncached_compute(network, points).tobytes()
        assert len(cache) == 0 and cache.nbytes == 0
        assert cache.hits == 0 and cache.misses == 1

    def test_cached_features_are_read_only_and_never_alias_inputs(self):
        ddnn, cache, points = fc_setup()
        ddnn.compute(points)
        (activation, value), = cache._entries.values()
        assert not activation.flags.writeable and not value.flags.writeable
        assert not np.may_share_memory(activation, points)

    def test_layer_zero_has_no_prefix(self):
        ddnn, _, _ = fc_setup()
        with pytest.raises(ValueError):
            PrefixCache(ddnn, 0)


class TestFrozenBatchIdentity:
    """A frozen batch is hashed once; any other batch on every lookup."""

    @staticmethod
    def counting_digests(monkeypatch) -> list[np.ndarray]:
        hashed: list[np.ndarray] = []
        digest = prefix_cache._digest

        def counting(rows):
            hashed.append(rows)
            return digest(rows)

        monkeypatch.setattr(prefix_cache, "_digest", counting)
        return hashed

    def test_equal_writable_copy_hits_through_the_digest(self, monkeypatch):
        ddnn, cache, points = fc_setup()
        hashed = self.counting_digests(monkeypatch)
        stack = remember_frozen(points.copy())
        copy = points.copy()
        features = cache.layer_inputs(ddnn, stack, None)
        again = cache.layer_inputs(ddnn, copy, None)
        assert (cache.misses, cache.hits) == (1, 1)
        assert again is features
        assert copy.tobytes() == stack.tobytes() == points.tobytes()
        assert copy.flags.writeable and not stack.flags.writeable
        # The writable copy is hashed on every lookup, the frozen stack and
        # its views once per identity.
        cache.layer_inputs(ddnn, copy, None)
        for _ in range(2):
            cache.layer_inputs(ddnn, stack, None)
            cache.layer_inputs(ddnn, stack[:12], None)
            cache.layer_inputs(ddnn, stack[12:], None)
        assert len(hashed) == 5
        assert ddnn.compute(copy).tobytes() == uncached_compute(ddnn, points).tobytes()

    def test_a_view_as_its_own_pinned_activation_is_no_pin(self):
        ddnn, cache, points = fc_setup()
        stack = remember_frozen(points.copy())
        plain = ddnn.compute(stack[:20])
        pinned = ddnn.compute(stack[:20], stack[:20])
        assert pinned.tobytes() == plain.tobytes()
        assert len(cache) == 1 and cache.hits == 1

    def test_identity_never_outlives_the_array(self):
        ddnn, cache, points = fc_setup()
        first = remember_frozen(points.copy())
        cache.layer_inputs(ddnn, first, None)
        (dead, _), = cache._digests.values()
        del first
        assert dead() is None
        # An array that reuses a dead array's id is hashed afresh.
        other = remember_frozen(points[::-1].copy())
        cache._digests[prefix_cache._identity(other)[1]] = (dead, b"stale")
        assert cache._digest(other) == prefix_cache._digest(other)
        assert ddnn.compute(other).tobytes() == uncached_compute(ddnn, other).tobytes()

    def test_a_frozen_foreign_buffer_is_copied_not_remembered(self):
        ddnn, cache, points = fc_setup()
        buffer = bytearray(points.tobytes())
        foreign = np.frombuffer(buffer)
        foreign.flags.writeable = False
        foreign = foreign.reshape(points.shape)
        stack = remember_frozen(foreign)
        assert not np.shares_memory(stack, foreign)
        assert prefix_cache._identity(foreign) is None
        cache.layer_inputs(ddnn, foreign, None)
        cache.layer_inputs(ddnn, stack, None)
        assert (cache.misses, cache.hits) == (1, 1)
        # The buffer changes under the read-only view; the copy does not.
        buffer[:8] = np.float64(0.5).tobytes()
        assert foreign[0, 0] == 0.5 and stack.tobytes() == points.tobytes()
        changed = foreign.copy()
        assert ddnn.compute(foreign).tobytes() == uncached_compute(ddnn, changed).tobytes()
        assert ddnn.compute(stack).tobytes() == uncached_compute(ddnn, points).tobytes()
        assert cache.misses == 2

    def test_a_driver_run_hashes_each_frozen_batch_once(self, monkeypatch):
        workload = classifier_perturbation_workload(1250, seed=1)
        hashed = self.counting_digests(monkeypatch)
        report, driver = driver_certified_repair(workload)
        assert report.status == "certified" and report.num_rounds == 2
        cache = driver.base.prefix_cache
        # Two verifier chunks miss; the encoder, the second verification
        # and the pool check hit them.
        assert (cache.misses, cache.hits) == (2, 6)
        stack = driver.spec.point_stack().points
        assert [rows.base is stack for rows in hashed] == [True, True]
        assert [rows.shape[0] for rows in hashed] == [1024, 226]


class TestExactness:
    @pytest.fixture(scope="class")
    def squeezenet(self):
        network = build_mini_squeezenet(side=8, num_classes=5, seed=3)
        return DecoupledNetwork.from_network(network)

    def test_conv_maxpool_suffix_matches_full_loop(self, squeezenet):
        ddnn = DecoupledNetwork(squeezenet.activation, squeezenet.value)
        layer = ddnn.repairable_layer_indices()[-1]
        points = ensure_rng(0).uniform(0.0, 1.0, size=(6, ddnn.input_size))
        cache = PrefixCache(ddnn, layer)
        cache.bind(ddnn)
        first = ddnn.compute(points)
        second = ddnn.compute(points)
        assert cache.hits == 1
        # The channels coincide below the layer: one shared feature array.
        (activation, value), = cache._entries.values()
        assert activation is value
        expected = uncached_compute(ddnn, points)
        assert first.tobytes() == second.tobytes() == expected.tobytes()

    def test_channels_that_differ_below_the_layer_are_run_separately(self, squeezenet):
        ddnn = DecoupledNetwork(squeezenet.activation.copy(), squeezenet.value.copy())
        layer = ddnn.repairable_layer_indices()[-1]
        nudge(ddnn.value.layers[1])
        points = ensure_rng(1).uniform(0.0, 1.0, size=(5, ddnn.input_size))
        cache = PrefixCache(ddnn, layer)
        cache.bind(ddnn)
        result = ddnn.compute(points)
        (activation, value), = cache._entries.values()
        assert activation is not value
        assert result.tobytes() == uncached_compute(ddnn, points).tobytes()

    @pytest.mark.parametrize("special", [-0.0, np.nan])
    def test_relu_and_maxpool_only_share_channels_where_provably_equal(self, special):
        clean = np.array([[0.0, 1.5, -2.0, 0.25]])
        dirty = clean.copy()
        dirty[0, 0] = special
        for layer in (ReLULayer(4), MaxPool2DLayer(1, 2, 2, pool_size=2)):
            assert layer.forward_matches_decoupled(clean)
            assert not layer.forward_matches_decoupled(dirty)
            assert layer.forward(clean).tobytes() == (
                layer.decoupled_forward(clean, clean).tobytes()
            )

    def test_negative_zero_and_nan_inputs_stay_exact(self):
        ddnn, _, points = fc_setup()
        # A network whose first layer is the ReLU sees the raw -0.0 entries.
        network = DecoupledNetwork(
            _with_leading_relu(ddnn.activation), _with_leading_relu(ddnn.value)
        )
        cache = PrefixCache(network, 3)
        cache.bind(network)
        points[0, :2] = -0.0
        points[1, 2] = np.nan
        result = network.compute(points)
        expected = uncached_compute(network, points)
        assert result.tobytes() == expected.tobytes()


def _with_leading_relu(network: Network) -> Network:
    return Network([ReLULayer(network.input_size)] + [layer.copy() for layer in network.layers])
