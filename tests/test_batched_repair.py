"""Differential tests for the repair data path and the sparse LP form.

The one repair path (vectorized multi-point Jacobians, batched constraint
encoding streamed as CSR chunks into an LP session) must be observationally
identical to the oracle in :mod:`tests.oracle` — Jacobians from the
exact-difference form of Theorem 4.5 and one dense constraint block per
point, solved as one cold LP from a dense by-eye standard form: same
Jacobians, same LP rows, same statuses, same deltas.  These
tests pin that equivalence at every level — layer, DDNN, LP model, and the
two repair algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import JacobianChunkStream
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import polytope_repair, reduce_to_key_points
from repro.core.specs import PointRepairSpec, PolytopeRepairSpec
from repro.lp.backends import get_backend
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.nn.activations import ReLULayer
from repro.nn.conv import Conv2DLayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.nn.pooling import MaxPool2DLayer
from repro.nn.reshape import FlattenLayer
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment

from tests.conftest import lp_solver, make_random_relu_network, make_random_tanh_network
from tests.oracle import (
    dense_standard_form,
    exact_jacobians,
    oracle_point_repair,
    specification_jacobians,
)


def make_conv_network(rng: np.random.Generator) -> Network:
    """A small conv + maxpool + dense network exercising every layer kind."""
    return Network(
        [
            Conv2DLayer.from_shape(
                1, 3, 3, input_height=8, input_width=8, stride=1, padding=1, rng=rng
            ),
            ReLULayer(3 * 8 * 8),
            MaxPool2DLayer(3, 8, 8, pool_size=2),
            FlattenLayer(3 * 4 * 4),
            FullyConnectedLayer.from_shape(3 * 4 * 4, 5, rng),
        ]
    )


class TestBatchedJacobians:
    """batch_parameter_jacobian == the exact-difference oracle of Theorem 4.5."""

    @pytest.mark.parametrize("use_activation_points", [False, True])
    def test_fully_connected_network(self, rng, use_activation_points):
        network = make_random_relu_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(7, network.input_size))
        activation_points = (
            points + 0.1 * rng.normal(size=points.shape) if use_activation_points else None
        )
        for layer_index in ddnn.repairable_layer_indices():
            outputs, jacobians = ddnn.batch_parameter_jacobian(
                layer_index, points, activation_points
            )
            expected_outputs, expected_jacobians = exact_jacobians(
                ddnn, layer_index, points, activation_points
            )
            np.testing.assert_allclose(outputs, expected_outputs, atol=1e-12, rtol=0)
            np.testing.assert_allclose(jacobians, expected_jacobians, atol=1e-12, rtol=0)

    def test_tanh_network(self, rng):
        network = make_random_tanh_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(5, network.input_size))
        outputs, jacobians = ddnn.batch_parameter_jacobian(0, points)
        expected_outputs, expected_jacobians = exact_jacobians(ddnn, 0, points)
        np.testing.assert_allclose(outputs, expected_outputs, atol=1e-12, rtol=0)
        np.testing.assert_allclose(jacobians, expected_jacobians, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("layer_index", [0, 4])
    def test_conv_maxpool_network(self, rng, layer_index):
        network = make_conv_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(4, network.input_size))
        activation_points = points + 0.05 * rng.normal(size=points.shape)
        outputs, jacobians = ddnn.batch_parameter_jacobian(
            layer_index, points, activation_points
        )
        expected_outputs, expected_jacobians = exact_jacobians(
            ddnn, layer_index, points, activation_points
        )
        np.testing.assert_allclose(outputs, expected_outputs, atol=1e-12, rtol=0)
        np.testing.assert_allclose(jacobians, expected_jacobians, atol=1e-12, rtol=0)

    def test_specification_jacobians_dispatch(self, rng):
        network = make_random_relu_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(6, network.input_size))
        labels = rng.integers(0, network.output_size, size=6)
        spec = PointRepairSpec.from_labels(points, labels, num_classes=network.output_size)
        outputs_batched, jacobians_batched = ddnn.batch_parameter_jacobian(
            0, spec.points, spec.activation_points
        )
        outputs_loop, jacobians_loop = specification_jacobians(ddnn, 0, spec)
        np.testing.assert_allclose(outputs_batched, outputs_loop, atol=1e-12)
        np.testing.assert_allclose(jacobians_batched, jacobians_loop, atol=1e-12)
        # The streamed constraint rows are the oracle's A_x (N(x) + J_x Δ) ≤ b_x.
        ((block, rhs),) = JacobianChunkStream(ddnn, 0, spec)
        expected_lhs = np.vstack(
            [c.a @ j for c, j in zip(spec.constraints, jacobians_loop)]
        )
        expected_rhs = np.concatenate(
            [c.b - c.a @ o for c, o in zip(spec.constraints, outputs_loop)]
        )
        np.testing.assert_allclose(block.toarray(), expected_lhs, atol=1e-12)
        np.testing.assert_allclose(rhs, expected_rhs, atol=1e-12)

    def test_batch_channel_traces_match_single(self, rng):
        network = make_random_relu_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(3, network.input_size))
        batched_act, batched_val = ddnn.batch_channel_traces(points)
        for index in range(3):
            single_act, single_val = ddnn.batch_channel_traces(points[index : index + 1])
            for entry, batch_entry in zip(single_act, batched_act):
                np.testing.assert_allclose(entry[0], batch_entry[index], atol=1e-12)
            for entry, batch_entry in zip(single_val, batched_val):
                np.testing.assert_allclose(entry[0], batch_entry[index], atol=1e-12)


class TestDifferentialPointRepair:
    """point_repair and the per-point dense oracle must yield identical repairs."""

    @pytest.mark.parametrize("norm", ["linf", "l1", "l1+linf"])
    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_feasible_repair_agrees(self, rng, norm, backend):
        network = make_random_relu_network(rng)
        points = rng.normal(size=(5, network.input_size))
        labels = rng.integers(0, network.output_size, size=5)
        spec = PointRepairSpec.from_labels(
            points, labels, num_classes=network.output_size, margin=1e-3
        )
        with lp_solver(backend):
            batched = point_repair(network, 2, spec, norm=norm)
            legacy = oracle_point_repair(network, 2, spec, norm=norm, sparse=False)
        assert batched.lp_status == legacy.lp_status
        assert batched.feasible == legacy.feasible
        assert batched.num_constraint_rows == legacy.num_constraint_rows
        if batched.feasible:
            np.testing.assert_allclose(batched.delta, legacy.delta, atol=1e-6)
            assert batched.objective_value == pytest.approx(legacy.objective_value, abs=1e-7)
            assert spec.is_satisfied_by(batched.network)

    def test_infeasible_repair_agrees(self, toy_network):
        # Contradictory constraints on the same input point: provably infeasible.
        spec = PointRepairSpec(
            points=np.array([[0.5], [0.5]]),
            constraints=[
                HPolytope.from_interval(1, 0, -1.0, -0.8),
                HPolytope.from_interval(1, 0, 0.5, 1.0),
            ],
        )
        batched = point_repair(toy_network, 0, spec)
        legacy = oracle_point_repair(toy_network, 0, spec, sparse=False)
        assert batched.lp_status is LPStatus.INFEASIBLE
        assert legacy.lp_status is LPStatus.INFEASIBLE

    def test_mixed_constraint_row_counts(self, rng):
        # Points with different numbers of constraint rows exercise the
        # grouped-einsum encoder's row placement.
        network = make_random_relu_network(rng)
        points = rng.normal(size=(4, network.input_size))
        constraints = [
            HPolytope.argmax_region(network.output_size, 0),      # 2 rows
            HPolytope.from_interval(network.output_size, 1, -5.0, 5.0),  # 2 rows
            HPolytope(np.ones((1, network.output_size)), np.array([10.0])),  # 1 row
            HPolytope.argmax_region(network.output_size, 2),      # 2 rows
        ]
        spec = PointRepairSpec(points=points, constraints=constraints)
        batched = point_repair(network, 0, spec, norm="l1")
        legacy = oracle_point_repair(network, 0, spec, norm="l1", sparse=False)
        assert batched.lp_status == legacy.lp_status
        if batched.feasible:
            np.testing.assert_allclose(batched.delta, legacy.delta, atol=1e-6)


def key_point_spec(network, spec: PolytopeRepairSpec) -> PointRepairSpec:
    """Algorithm 2's finite reduction, for the oracle to solve directly."""
    points, activations, constraints = reduce_to_key_points(network, spec)
    return PointRepairSpec(
        points=np.array(points),
        constraints=constraints,
        activation_points=np.array(activations),
    )


class TestDifferentialPolytopeRepair:
    """Polytope repair must agree with the oracle on its key points."""

    def test_segment_spec_agrees(self, toy_network):
        spec = PolytopeRepairSpec()
        spec.add_segment(
            LineSegment(np.array([0.5]), np.array([1.5])),
            HPolytope.from_interval(1, 0, -0.8, -0.4),
        )
        batched = polytope_repair(toy_network, 0, spec, norm="l1")
        legacy = oracle_point_repair(
            toy_network, 0, key_point_spec(toy_network, spec), norm="l1", sparse=False
        )
        assert batched.lp_status == legacy.lp_status
        assert batched.feasible and legacy.feasible
        np.testing.assert_allclose(batched.delta, legacy.delta, atol=1e-6)
        assert batched.num_key_points == legacy.num_key_points

    def test_random_relu_segments_agree(self, rng):
        network = make_random_relu_network(rng)
        segments = [
            LineSegment(rng.normal(size=network.input_size), rng.normal(size=network.input_size))
            for _ in range(2)
        ]
        constraints = [
            HPolytope.from_interval(network.output_size, 0, -50.0, 50.0) for _ in segments
        ]
        spec = PolytopeRepairSpec.from_segments(segments, constraints)
        batched = polytope_repair(network, 2, spec)
        legacy = oracle_point_repair(network, 2, key_point_spec(network, spec), sparse=False)
        assert batched.lp_status == legacy.lp_status
        if batched.feasible:
            np.testing.assert_allclose(batched.delta, legacy.delta, atol=1e-6)


def random_lp_model(rng: np.random.Generator) -> LPModel:
    """A random LPModel mixing narrow blocks, eq rows, bounds, and norms."""
    model = LPModel()
    delta = model.add_variables(int(rng.integers(2, 6)), "delta", lower=-10.0, upper=10.0)
    extra = model.add_variables(int(rng.integers(1, 4)), "extra")
    for _ in range(int(rng.integers(1, 4))):
        columns = delta if rng.random() < 0.5 else extra
        matrix = rng.normal(size=(int(rng.integers(1, 4)), columns.size))
        matrix[rng.random(size=matrix.shape) < 0.3] = 0.0  # structural zeros
        rhs = rng.normal(size=matrix.shape[0]) + 5.0
        if rng.random() < 0.3:
            model.add_eq_block(matrix, rhs, columns)
        else:
            model.add_leq_block(matrix, rhs, columns)
    add_norm_objective(model, delta, "l1+linf")
    return model


class TestSparseStandardForm:
    """The CSR standard form must equal the dense by-eye assembly exactly."""

    def test_random_models_agree(self, rng):
        for _ in range(25):
            model = random_lp_model(rng)
            c, a_ub, b_ub, a_eq, b_eq, bounds = dense_standard_form(model)
            c_s, a_ub_s, b_ub_s, a_eq_s, b_eq_s, bounds_s = model.standard_form()
            assert sp.issparse(a_ub_s) and sp.issparse(a_eq_s)
            np.testing.assert_array_equal(c, c_s)
            np.testing.assert_array_equal(b_ub, b_ub_s)
            np.testing.assert_array_equal(b_eq, b_eq_s)
            np.testing.assert_array_equal(bounds, bounds_s)
            np.testing.assert_array_equal(a_ub, a_ub_s.toarray())
            np.testing.assert_array_equal(a_eq, a_eq_s.toarray())

    def test_empty_model_sparse(self):
        model = LPModel()
        model.add_variables(3)
        _, a_ub, b_ub, a_eq, b_eq, _ = model.standard_form()
        assert sp.issparse(a_ub) and sp.issparse(a_eq)
        assert a_ub.shape == (0, 3) and a_eq.shape == (0, 3)
        assert b_ub.size == 0 and b_eq.size == 0

    def test_all_zero_rows_preserved(self):
        # A zero row with a non-trivial rhs must survive sparse assembly:
        # "0 @ x == 1" is infeasible and dropping it would change the answer.
        model = LPModel()
        indices = model.add_variables(2)
        model.add_eq_block(np.zeros((1, 2)), [1.0], indices)
        _, _, _, a_eq, b_eq, _ = model.standard_form()
        assert a_eq.shape == (1, 2)
        np.testing.assert_array_equal(b_eq, [1.0])
        solution = model.solve()
        assert solution.status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_solve_sparse_matches_dense(self, rng, backend):
        for _ in range(5):
            model = random_lp_model(rng)
            with lp_solver(backend):
                dense = get_backend().solve(*dense_standard_form(model))
                sparse = model.solve()
            assert dense.status == sparse.status
            if dense.status is LPStatus.OPTIMAL:
                assert dense.objective == pytest.approx(sparse.objective, abs=1e-7)


class TestVectorizedAddVariables:
    """The vectorized add_variables must match the old per-variable loop."""

    def test_block_indices_names_and_bounds(self):
        model = LPModel()
        model.add_variable("first")
        indices = model.add_variables(3, "delta", lower=-2.0, upper=4.0)
        np.testing.assert_array_equal(indices, [1, 2, 3])
        assert model.num_variables == 4
        assert [model.variable_name(i) for i in indices] == ["delta[0]", "delta[1]", "delta[2]"]
        _, _, _, _, _, bounds = model.standard_form()
        np.testing.assert_array_equal(bounds[1:], [[-2.0, 4.0]] * 3)

    def test_default_name_and_empty_block(self):
        model = LPModel()
        empty = model.add_variables(0)
        assert empty.size == 0 and model.num_variables == 0
        indices = model.add_variables(2)
        assert [model.variable_name(i) for i in indices] == ["x[0]", "x[1]"]

    def test_invalid_bounds_rejected(self):
        from repro.exceptions import LPError

        model = LPModel()
        with pytest.raises(LPError):
            model.add_variables(2, lower=1.0, upper=-1.0)
        assert model.num_variables == 0

    def test_negative_count_rejected(self):
        from repro.exceptions import LPError

        with pytest.raises(LPError):
            LPModel().add_variables(-1)

    def test_duplicate_block_columns_rejected(self):
        # Duplicate columns would be silently summed by the CSR assembly;
        # the model must refuse them outright.
        from repro.exceptions import LPError

        model = LPModel()
        model.add_variables(2)
        with pytest.raises(LPError):
            model.add_leq_block(np.array([[1.0, 1.0]]), [1.0], columns=[0, 0])
