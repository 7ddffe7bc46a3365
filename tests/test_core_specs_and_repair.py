"""Tests for repair specifications, pointwise repair, and polytope repair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import count_key_points, polytope_repair, reduce_to_key_points
from repro.core.result import RepairResult, RepairTiming
from repro.core.specs import (
    PointRepairSpec,
    PolytopeRepairSpec,
    classification_constraint,
)
from repro.exceptions import NotPiecewiseLinearError, SpecificationError
from repro.lp.status import LPStatus
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from tests.conftest import lp_solver, make_random_relu_network, make_random_tanh_network


class TestPointRepairSpec:
    def test_from_labels_builds_argmax_constraints(self):
        spec = PointRepairSpec.from_labels(np.zeros((2, 3)), [1, 2], num_classes=4, margin=0.1)
        assert spec.num_points == 2
        assert spec.num_constraint_rows == 6
        assert spec.constraints[0].contains(np.array([0.0, 1.0, 0.0, 0.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SpecificationError):
            PointRepairSpec(np.zeros((2, 3)), [classification_constraint(4, 0)])
        with pytest.raises(SpecificationError):
            PointRepairSpec.from_labels(np.zeros((2, 3)), [1], num_classes=4)

    def test_activation_points_shape_checked(self):
        with pytest.raises(SpecificationError):
            PointRepairSpec(
                np.zeros((2, 3)),
                [classification_constraint(4, 0)] * 2,
                activation_points=np.zeros((1, 3)),
            )

    def test_activation_point_defaults_to_point(self):
        spec = PointRepairSpec.from_labels(np.arange(6.0).reshape(2, 3), [0, 1], num_classes=2)
        np.testing.assert_array_equal(spec.activation_point(1), spec.points[1])

    def test_is_satisfied_by(self, toy_network):
        spec = PointRepairSpec(
            points=np.array([[0.5]]),
            constraints=[HPolytope.from_interval(1, 0, -1.0, 0.0)],
        )
        assert spec.is_satisfied_by(toy_network)
        strict = PointRepairSpec(
            points=np.array([[0.5]]),
            constraints=[HPolytope.from_interval(1, 0, 0.0, 1.0)],
        )
        assert not strict.is_satisfied_by(toy_network)


class TestPolytopeRepairSpec:
    def test_add_segment_and_plane(self):
        spec = PolytopeRepairSpec()
        spec.add_segment(LineSegment([0.0, 0.0], [1.0, 1.0]), classification_constraint(3, 0))
        spec.add_plane([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], classification_constraint(3, 1))
        assert spec.num_polytopes == 2

    def test_add_plane_drops_exact_duplicate_vertices(self):
        spec = PolytopeRepairSpec()
        spec.add_plane(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            classification_constraint(3, 1),
        )
        np.testing.assert_array_equal(
            spec.entries[0].region, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_plane_needs_three_vertices(self):
        spec = PolytopeRepairSpec()
        with pytest.raises(SpecificationError):
            spec.add_plane(np.zeros((2, 4)), classification_constraint(3, 0))
        # Duplicates do not count toward the three-vertex minimum.
        with pytest.raises(SpecificationError):
            spec.add_plane(
                [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], classification_constraint(3, 0)
            )

    def test_from_segments_validation(self):
        with pytest.raises(SpecificationError):
            PolytopeRepairSpec.from_segments([], [])
        with pytest.raises(SpecificationError):
            PolytopeRepairSpec.from_segments(
                [LineSegment([0.0], [1.0])], []
            )

    def test_sample_points(self, rng):
        spec = PolytopeRepairSpec.from_segments(
            [LineSegment([0.0, 0.0], [1.0, 0.0])], [classification_constraint(2, 0)]
        )
        points, constraints = spec.sample_points(5, rng)
        assert points.shape == (5, 2)
        assert len(constraints) == 5
        assert np.all(points[:, 1] == 0.0)


class TestPointRepairToyExample:
    """The running example of §3.1 (Equation 2 and Figure 5(a))."""

    def equation2_spec(self) -> PointRepairSpec:
        return PointRepairSpec(
            points=np.array([[0.5], [1.5]]),
            constraints=[
                HPolytope.from_interval(1, 0, -1.0, -0.8),
                HPolytope.from_interval(1, 0, -0.2, 0.0),
            ],
        )

    @pytest.mark.parametrize("norm", ["l1", "linf", "l1+linf"])
    def test_repair_satisfies_equation2(self, toy_network, norm):
        result = point_repair(toy_network, 0, self.equation2_spec(), norm=norm)
        assert result.feasible
        assert result.lp_status is LPStatus.OPTIMAL
        repaired = result.network
        assert -1.0 - 1e-6 <= repaired.compute(np.array([0.5]))[0] <= -0.8 + 1e-6
        assert -0.2 - 1e-6 <= repaired.compute(np.array([1.5]))[0] <= 0.0 + 1e-6

    def test_repair_of_last_layer_also_works(self, toy_network):
        result = point_repair(toy_network, 2, self.equation2_spec(), norm="l1")
        assert result.feasible
        assert self.equation2_spec().is_satisfied_by(result.network)

    def test_original_network_untouched(self, toy_network):
        before = toy_network.compute(np.array([0.5]))
        point_repair(toy_network, 0, self.equation2_spec())
        np.testing.assert_allclose(toy_network.compute(np.array([0.5])), before)

    def test_result_metadata(self, toy_network):
        result = point_repair(toy_network, 0, self.equation2_spec(), norm="l1")
        assert result.num_key_points == 2
        assert result.num_constraint_rows == 4
        assert result.num_variables >= 6
        assert result.delta is not None and result.delta.size == 6
        assert result.delta_l1_norm > 0
        assert result.delta_linf_norm <= result.delta_l1_norm
        assert result.timing.total_seconds > 0
        summary = result.summary()
        assert summary["feasible"] is True
        assert summary["norm"] == "l1"

    def test_infeasible_specification_detected(self, toy_network):
        impossible = PointRepairSpec(
            points=np.array([[0.5], [0.5]]),
            constraints=[
                HPolytope.from_interval(1, 0, 1.0, 2.0),
                HPolytope.from_interval(1, 0, -2.0, -1.0),
            ],
        )
        result = point_repair(toy_network, 0, impossible)
        assert not result.feasible
        assert result.network is None
        assert result.lp_status is LPStatus.INFEASIBLE

    def test_dimension_mismatch_rejected(self, toy_network):
        spec = PointRepairSpec(
            points=np.array([[0.5, 0.5]]),
            constraints=[HPolytope.from_interval(1, 0, -1.0, 0.0)],
        )
        with pytest.raises(SpecificationError):
            point_repair(toy_network, 0, spec)

    def test_simplex_backend_agrees_with_scipy(self, toy_network):
        spec = self.equation2_spec()
        scipy_result = point_repair(toy_network, 0, spec, norm="l1")
        with lp_solver("simplex"):
            simplex_result = point_repair(toy_network, 0, spec, norm="l1")
        assert scipy_result.feasible and simplex_result.feasible
        assert scipy_result.objective_value == pytest.approx(
            simplex_result.objective_value, abs=1e-6
        )

    def test_delta_bound_applied(self, toy_network):
        result = point_repair(toy_network, 0, self.equation2_spec(), delta_bound=10.0)
        assert result.feasible
        assert result.delta_linf_norm <= 10.0 + 1e-9

    def test_accepts_existing_ddnn(self, toy_network):
        ddnn = DecoupledNetwork.from_network(toy_network)
        result = point_repair(ddnn, 0, self.equation2_spec())
        assert result.feasible


class TestPointRepairClassification:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_repaired_network_classifies_repair_points(self, seed):
        rng = np.random.default_rng(seed)
        network = make_random_relu_network(rng, (4, 10, 8, 3))
        points = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        spec = PointRepairSpec.from_labels(points, labels, num_classes=3, margin=1e-4)
        result = point_repair(network, network.parameterized_layer_indices()[-1], spec)
        if result.feasible:
            np.testing.assert_array_equal(result.network.predict(points), labels)

    def test_tanh_network_point_repair(self, rng):
        """Pointwise repair works for non-PWL activations (paper §5)."""
        network = make_random_tanh_network(rng, (3, 8, 6, 2))
        points = rng.normal(size=(4, 3))
        labels = rng.integers(0, 2, size=4)
        spec = PointRepairSpec.from_labels(points, labels, num_classes=2, margin=1e-4)
        result = point_repair(network, network.parameterized_layer_indices()[-1], spec)
        assert result.feasible
        np.testing.assert_array_equal(result.network.predict(points), labels)

    def test_minimality_of_linf_norm(self, toy_network):
        """No satisfying repair of the same layer can have a smaller ℓ∞ norm."""
        spec = PointRepairSpec(
            points=np.array([[0.5]]),
            constraints=[HPolytope.from_interval(1, 0, -0.3, -0.2)],
        )
        result = point_repair(toy_network, 0, spec, norm="linf")
        assert result.feasible
        # Shrinking the found delta by 20% must violate the specification,
        # otherwise the LP's optimum was not minimal.
        ddnn = DecoupledNetwork.from_network(toy_network)
        ddnn = ddnn.with_parameter_delta(0, 0.8 * result.delta)
        assert not spec.is_satisfied_by(ddnn)


class TestPolytopeRepairToyExample:
    """The running example of §3.2 (Equation 3 and Figure 5(b))."""

    def equation3_spec(self) -> PolytopeRepairSpec:
        spec = PolytopeRepairSpec()
        spec.add_segment(
            LineSegment(np.array([0.5]), np.array([1.5])),
            HPolytope.from_interval(1, 0, -0.8, -0.4),
        )
        return spec

    def test_key_point_reduction_matches_paper(self, toy_network):
        """§3.2: the specification reduces to 4 key points (0.5, 1, 1, 1.5)."""
        key_points, activation_points, constraints = reduce_to_key_points(
            toy_network, self.equation3_spec()
        )
        values = sorted(point[0] for point in key_points)
        np.testing.assert_allclose(values, [0.5, 1.0, 1.0, 1.5], atol=1e-9)
        assert len(activation_points) == 4
        assert len(constraints) == 4
        assert count_key_points(toy_network, self.equation3_spec()) == 4

    def test_polytope_repair_satisfies_specification_everywhere(self, toy_network):
        result = polytope_repair(toy_network, 0, self.equation3_spec(), norm="l1")
        assert result.feasible
        for value in np.linspace(0.5, 1.5, 101):
            output = result.network.compute(np.array([value]))[0]
            assert -0.8 - 1e-6 <= output <= -0.4 + 1e-6

    def test_l1_minimal_repair_matches_paper(self, toy_network):
        """§3.2: an ℓ1-minimal solution is the single weight change Δ₂ = −0.2."""
        result = polytope_repair(toy_network, 0, self.equation3_spec(), norm="l1")
        assert result.objective_value == pytest.approx(0.2, abs=1e-6)

    def test_timing_includes_linregions_phase(self, toy_network):
        result = polytope_repair(toy_network, 0, self.equation3_spec())
        assert result.timing.linregions_seconds > 0.0

    def test_non_pwl_network_rejected(self, rng):
        network = make_random_tanh_network(rng, (1, 4, 1))
        spec = PolytopeRepairSpec()
        spec.add_segment(
            LineSegment(np.array([0.0]), np.array([1.0])),
            HPolytope.from_interval(1, 0, -1.0, 1.0),
        )
        with pytest.raises(NotPiecewiseLinearError):
            polytope_repair(network, 0, spec)

    def test_empty_specification_rejected(self, toy_network):
        with pytest.raises(SpecificationError):
            polytope_repair(toy_network, 0, PolytopeRepairSpec())

    def test_infeasible_polytope_repair(self, toy_network):
        spec = PolytopeRepairSpec()
        # Impossible: the output must be both below -10 and the layer cannot
        # achieve it while the same spec also pins another disjoint interval.
        spec.add_segment(
            LineSegment(np.array([0.4]), np.array([0.6])),
            HPolytope.from_interval(1, 0, -11.0, -10.0),
        )
        spec.add_segment(
            LineSegment(np.array([0.5]), np.array([0.55])),
            HPolytope.from_interval(1, 0, 10.0, 11.0),
        )
        result = polytope_repair(toy_network, 0, spec)
        assert not result.feasible

    def test_polytope_repair_on_2d_plane_spec(self, rng):
        """A 2-D polytope specification on a small ReLU network."""
        network = make_random_relu_network(rng, (3, 8, 2))
        plane = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],
            ]
        )
        spec = PolytopeRepairSpec()
        spec.add_plane(plane, classification_constraint(2, 0, margin=1e-4))
        result = polytope_repair(network, network.parameterized_layer_indices()[-1], spec)
        assert result.feasible
        # Dense samples of the plane must now be classified as class 0.
        grid = rng.uniform(size=(200, 2))
        samples = np.column_stack([grid, np.zeros(200)])
        assert result.network.accuracy(samples, np.zeros(200, dtype=int)) == 1.0


class TestRepairResultDataclass:
    def test_timing_totals(self):
        timing = RepairTiming(1.0, 2.0, 3.0, 0.5)
        assert timing.total_seconds == pytest.approx(6.5)
        assert timing.as_dict()["total"] == pytest.approx(6.5)

    def test_empty_delta_norms(self):
        result = RepairResult(
            feasible=False,
            network=None,
            delta=None,
            layer_index=0,
            lp_status=LPStatus.INFEASIBLE,
        )
        assert result.delta_l1_norm == 0.0
        assert result.delta_linf_norm == 0.0
        assert result.summary()["feasible"] is False
