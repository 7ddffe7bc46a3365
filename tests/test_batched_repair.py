"""Differential tests for the repair data path and the sparse LP form.

The one repair path (vectorized multi-point Jacobians, batched constraint
encoding streamed as CSR chunks into an LP session) must be observationally
identical to the oracle in :mod:`tests.oracle` — Jacobians from the
exact-difference form of Theorem 4.5 and one dense constraint block per
point, solved as one cold LP from a dense by-eye standard form: same
Jacobians, same LP rows, same statuses, same deltas.  These
tests pin that equivalence at every level — layer, DDNN, LP session, and the
two repair algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import JacobianChunkStream
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import polytope_repair, reduce_to_key_points
from repro.core.specs import PointRepairSpec, PolytopeRepairSpec
from repro.exceptions import LPError
from repro.lp.model import LPSession
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
    exact_jacobians,
    oracle_point_repair,
    repair_standard_form,
    solve_cold,
    specification_jacobians,
    with_einsum_convs,
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
        np.testing.assert_allclose(block, expected_lhs, atol=1e-12)
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


class TestConvKernelContract:
    """BLAS conv kernels against the einsum oracle, end to end through a repair.

    The kernels differ from the einsum in the last bits, so a repair through
    them must reach the same verdict with the same LP objective (1e-9
    relative), not the same delta bytes.
    """

    @pytest.mark.parametrize("layer_index", [0, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repair_matches_einsum_conv_oracle(self, layer_index, seed):
        rng = np.random.default_rng(seed)
        network = make_conv_network(rng)
        points = rng.normal(size=(6, network.input_size))
        labels = rng.integers(0, network.output_size, size=6)
        spec = PointRepairSpec.from_labels(
            points, labels, num_classes=network.output_size, margin=1e-4
        )
        reference_network = with_einsum_convs(network)
        np.testing.assert_allclose(
            network.compute(points), reference_network.compute(points), atol=1e-12, rtol=0
        )
        result = point_repair(network, layer_index, spec)
        reference = point_repair(reference_network, layer_index, spec)
        assert result.feasible and reference.feasible
        assert result.lp_status == reference.lp_status
        assert result.objective_value == pytest.approx(reference.objective_value, rel=1e-9)


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


@st.composite
def repair_lps(draw):
    """A repair-shaped LP: a session and its appends, plus the by-eye form.

    Deltas with an optional box bound, a norm objective, then Jacobian-like
    row blocks (structural zeros, sometimes an inconsistent pair) cut at
    random rows into blocks, handed to ``append_rows`` in random groups,
    as dense arrays or CSR, with the standard form sometimes stacked
    between appends.
    """
    num_deltas = draw(st.integers(1, 6))
    norm = draw(st.sampled_from(["linf", "l1", "l1+linf"]))
    delta_bound = draw(st.one_of(st.none(), st.floats(0.1, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lhs = rng.normal(size=(draw(st.integers(0, 12)), num_deltas))
    lhs[rng.random(lhs.shape) < 0.3] = 0.0
    rhs = rng.normal(size=lhs.shape[0]) + 1.0
    if draw(st.booleans()):
        # sum(Δ) <= t and sum(Δ) >= t + 1: infeasible.
        row = np.ones((1, num_deltas))
        lhs = np.vstack([lhs, row, -row])
        rhs = np.concatenate([rhs, [0.5, -1.5]])
    cuts = sorted(draw(st.lists(st.integers(0, lhs.shape[0]), max_size=4)))
    bounds = [0, *cuts, lhs.shape[0]]
    blocks = [(lhs[a:b], rhs[a:b]) for a, b in zip(bounds, bounds[1:])]
    session = LPSession()
    delta = session.add_variables(
        num_deltas,
        lower=-np.inf if delta_bound is None else -delta_bound,
        upper=np.inf if delta_bound is None else delta_bound,
    )
    add_norm_objective(session, delta, norm)
    group = []
    for matrix, block_rhs in blocks:
        group.append((sp.csr_matrix(matrix) if draw(st.booleans()) else matrix, block_rhs))
        if draw(st.booleans()):
            session.append_rows(group)
            group = []
            if draw(st.booleans()):
                session.standard_form()
    session.append_rows(group)
    return session, repair_standard_form(num_deltas, norm, delta_bound, blocks)


class TestSparseStandardForm:
    """The session's CSR standard form equals the by-eye dense assembly exactly."""

    @settings(max_examples=60, deadline=None)
    @given(lp=repair_lps())
    def test_random_models_agree(self, lp):
        session, (c, a_ub, b_ub, a_eq, b_eq, bounds) = lp
        c_s, a_ub_s, b_ub_s, a_eq_s, b_eq_s, bounds_s = session.standard_form()
        assert sp.isspmatrix_csr(a_ub_s) and a_ub_s.has_canonical_format
        assert sp.issparse(a_eq_s) and a_eq_s.shape == a_eq.shape
        np.testing.assert_array_equal(c, c_s)
        np.testing.assert_array_equal(a_ub, a_ub_s.toarray())
        np.testing.assert_array_equal(b_ub, b_ub_s)
        np.testing.assert_array_equal(b_eq, b_eq_s)
        np.testing.assert_array_equal(bounds, bounds_s)
        assert session.num_rows == b_ub.size

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    @settings(max_examples=25, deadline=None)
    @given(lp=repair_lps())
    def test_solve_sparse_matches_dense(self, backend, lp):
        """Row generation on the session vs one cold solve of the dense form."""
        session, form = lp
        with lp_solver(backend):
            sparse = session.solve()
            dense = solve_cold(form, sparse=False)
        assert dense.status == sparse.status
        if dense.status is LPStatus.OPTIMAL:
            assert sparse.objective == pytest.approx(dense.objective, rel=1e-9, abs=1e-12)

    def test_empty_model_sparse(self):
        session = LPSession()
        session.add_variables(3)
        _, a_ub, b_ub, a_eq, b_eq, _ = session.standard_form()
        assert sp.issparse(a_ub) and sp.issparse(a_eq)
        assert a_ub.shape == (0, 3) and a_eq.shape == (0, 3)
        assert b_ub.size == 0 and b_eq.size == 0

    def test_all_zero_rows_preserved(self):
        # A zero row with a non-trivial rhs must survive sparse assembly:
        # "0 @ x <= -1" is infeasible and dropping it would change the answer.
        session = LPSession()
        session.add_variables(2)
        session.append_rows([(np.zeros((1, 2)), [-1.0])])
        _, a_ub, b_ub, _, _, _ = session.standard_form()
        assert a_ub.shape == (1, 2) and a_ub.nnz == 0
        np.testing.assert_array_equal(b_ub, [-1.0])
        assert session.solve().status is LPStatus.INFEASIBLE


class TestVectorizedAddVariables:
    """``add_variables`` appends one block of bounds and costs at once."""

    def test_block_indices_names_and_bounds(self):
        session = LPSession()
        session.add_variables(1)
        indices = session.add_variables(3, lower=-2.0, upper=4.0, cost=1.5)
        np.testing.assert_array_equal(indices, [1, 2, 3])
        assert session.num_variables == 4
        c, _, _, _, _, bounds = session.standard_form()
        np.testing.assert_array_equal(c, [0.0, 1.5, 1.5, 1.5])
        np.testing.assert_array_equal(bounds[1:], [[-2.0, 4.0]] * 3)

    def test_default_name_and_empty_block(self):
        session = LPSession()
        empty = session.add_variables(0)
        assert empty.size == 0 and session.num_variables == 0
        indices = session.add_variables(2)
        np.testing.assert_array_equal(indices, [0, 1])
        c, _, _, _, _, bounds = session.standard_form()
        np.testing.assert_array_equal(c, [0.0, 0.0])
        np.testing.assert_array_equal(bounds, [[-np.inf, np.inf]] * 2)

    def test_invalid_bounds_rejected(self):
        session = LPSession()
        with pytest.raises(LPError):
            session.add_variables(2, lower=1.0, upper=-1.0)
        assert session.num_variables == 0

    def test_negative_count_rejected(self):
        with pytest.raises(LPError):
            LPSession().add_variables(-1)
