"""Tests for the verification subsystem (repro.verify)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import point_repair
from repro.core.specs import PointRepairSpec, PolytopeRepairSpec
from repro.exceptions import SpecificationError
from repro.experiments.task1_imagenet import pointwise_verification_spec
from repro.nn.activations import ReLULayer, TanhLayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.syrenn.cache import PartitionCache
from repro.verify import (
    Box,
    GridVerifier,
    RandomVerifier,
    RegionStatus,
    SpecRegion,
    SyrennVerifier,
    VerificationSpec,
)
from tests.oracle import oracle_verify

@pytest.fixture
def plane_network(rng) -> Network:
    """A small random PWL classifier over the plane."""
    return Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 3, rng),
        ]
    )


def toy_spec(violated: bool) -> VerificationSpec:
    """A segment spec on N₁ (fixture network): y ≤ 0.5 fails only near x = -1."""
    spec = VerificationSpec()
    segment = (
        LineSegment([-1.0], [2.0]) if violated else LineSegment([0.0], [2.0])
    )
    spec.add_segment(segment, HPolytope([[1.0]], [0.5]))
    return spec


class TestVerificationSpec:
    def test_region_kinds(self):
        spec = VerificationSpec()
        spec.add_segment(LineSegment([0.0, 0.0], [1.0, 1.0]), HPolytope([[1.0, 0.0]], [1.0]))
        spec.add_plane([[0, 0], [1, 0], [0, 1]], HPolytope([[1.0, 0.0]], [1.0]))
        spec.add_box([0, 0], [1, 1], HPolytope([[1.0, 0.0]], [1.0]))
        assert spec.num_regions == 3

    def test_plane_needs_three_vertices(self):
        with pytest.raises(SpecificationError):
            VerificationSpec().add_plane([[0, 0], [1, 1]], HPolytope([[1.0, 0.0]], [1.0]))

    def test_box_validation(self):
        with pytest.raises(SpecificationError):
            Box([1.0], [0.0])

    def test_empty_spec_rejected(self, toy_network):
        with pytest.raises(SpecificationError):
            SyrennVerifier().verify(toy_network, VerificationSpec())

    def test_dimension_mismatch_rejected(self, toy_network):
        spec = VerificationSpec()
        spec.add_segment(LineSegment([0.0, 0.0], [1.0, 1.0]), HPolytope([[1.0]], [1.0]))
        with pytest.raises(SpecificationError):
            GridVerifier().verify(toy_network, spec)


NAN, INF = float("nan"), float("inf")
WINS = HPolytope.argmax_region(3, 0)

#: Ways to put a non-finite region into a spec over the plane network.
NON_FINITE_REGIONS = {
    "nan-box": lambda spec: spec.add_box([NAN, 0.0], [1.0, 0.0], WINS),
    "inf-box": lambda spec: spec.add_box([0.0, -INF], [0.0, 1.0], WINS),
    "nan-point-box": lambda spec: spec.add_box([NAN, 0.0], [NAN, 0.0], WINS),
    "nan-segment": lambda spec: spec.add_segment(LineSegment([0.0, NAN], [1.0, 1.0]), WINS),
    "inf-segment": lambda spec: spec.add_segment(LineSegment([0.0, 0.0], [INF, 1.0]), WINS),
    "nan-plane": lambda spec: spec.add_plane([[0, 0], [1, NAN], [0, 1]], WINS),
    "nan-constraint": lambda spec: spec.add_box(
        [0.0, 0.0], [0.0, 0.0], HPolytope(WINS.a, [NAN, 0.0])
    ),
    "inf-constraint": lambda spec: spec.add_segment(
        LineSegment([0.0, 0.0], [1.0, 1.0]), HPolytope([[INF, 0.0, 0.0]], [1.0])
    ),
    "spec-region": lambda spec: spec.regions.append(
        SpecRegion(LineSegment([NAN, 0.0], [1.0, 1.0]), WINS)
    ),
    "from-polytope-spec": lambda spec: spec.regions.extend(
        VerificationSpec.from_polytope_spec(
            PolytopeRepairSpec.from_segments([LineSegment([0.0, 0.0], [1.0, INF])], [WINS])
        ).regions
    ),
}


class TestNonFiniteRegionsRejected:
    """A NaN or infinite bound, vertex or constraint entry never reaches a verifier.

    Every margin over such a region is NaN, and ``NaN > tolerance`` is
    false, so a verifier handed one would certify it.
    """

    @pytest.mark.parametrize("build", sorted(NON_FINITE_REGIONS))
    @pytest.mark.parametrize(
        "verifier",
        [SyrennVerifier, lambda: GridVerifier(certify_exhaustive=True)],
        ids=["syrenn", "grid-exhaustive"],
    )
    def test_rejected_before_verification(self, plane_network, verifier, build):
        spec = VerificationSpec()
        spec.add_box([0.0, 0.0], [0.0, 0.0], WINS)
        with pytest.raises(SpecificationError, match="finite"):
            NON_FINITE_REGIONS[build](spec)
            verifier().verify(plane_network, spec)
        assert spec.num_regions == 1

    @pytest.mark.parametrize(
        "region",
        [
            {"kind": "box", "lower": [NAN, 0.0], "upper": [1.0, 0.0]},
            {"kind": "segment", "start": [0.0, 0.0], "end": [1.0, -INF]},
        ],
        ids=["nan-box", "inf-segment"],
    )
    def test_rejected_from_wire_format(self, region):
        payload = {"regions": [{"region": region, "constraint": {"a": WINS.a.tolist(), "b": WINS.b.tolist()}}]}
        with pytest.raises(SpecificationError, match="finite"):
            VerificationSpec.from_dict(payload)


class TestImmutableSpecRegions:
    """Built spec regions are frozen, and so is every array they hold."""

    @staticmethod
    def spec_of_every_kind() -> VerificationSpec:
        spec = VerificationSpec()
        spec.add_segment(LineSegment([0.0, 0.0], [1.0, 1.0]), HPolytope.argmax_region(3, 0))
        spec.add_plane([[0, 0], [1, 0], [0, 1]], HPolytope.argmax_region(3, 1))
        spec.add_box([0, 0], [1, 1], HPolytope.argmax_region(3, 2))
        spec.add_box([0, 0], [0, 1], HPolytope.argmax_region(3, 2))
        spec.add_box([0.5, 0.5], [0.5, 0.5], HPolytope.argmax_region(3, 2))
        return spec

    @staticmethod
    def arrays_of(entry: SpecRegion) -> list[np.ndarray]:
        region = entry.region
        if isinstance(region, LineSegment):
            arrays = [region.start, region.end]
        elif isinstance(region, Box):
            arrays = [region.lower, region.upper]
        else:
            arrays = [region]
        normalized = entry.normalized
        if isinstance(normalized, LineSegment):
            arrays += [normalized.start, normalized.end]
        elif normalized is not None:
            arrays.append(normalized)
        return arrays + [entry.constraint.a, entry.constraint.b]

    def test_arrays_are_read_only(self):
        for entry in self.spec_of_every_kind().regions:
            for array in self.arrays_of(entry):
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 7.0

    @pytest.mark.parametrize("attribute", ["region", "constraint", "name"])
    def test_attributes_cannot_be_reassigned(self, attribute):
        entry = self.spec_of_every_kind().regions[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(entry, attribute, None)

    def test_callers_arrays_are_copied_not_frozen(self):
        start, vertices = np.array([0.0, 0.0]), np.array([[0.0, 0], [1, 0], [0, 1]])
        a, b = np.array([[1.0, -1.0, 0.0]]), np.array([0.5])
        segment = LineSegment(start, np.array([1.0, 1.0]))
        spec = VerificationSpec()
        spec.add_segment(segment, HPolytope(a, b))
        spec.add_plane(vertices, HPolytope(a, b))
        for array in (start, vertices, a, b, segment.start):
            array.flat[0] = 3.0
        assert spec.regions[0].region.start[0] == 0.0
        assert spec.regions[1].region[0, 0] == 0.0
        assert spec.regions[1].constraint.a[0, 0] == 1.0
        assert spec.regions[0].constraint.b[0] == 0.5

    def test_frozen_inputs_are_shared_not_copied(self):
        entry = self.spec_of_every_kind().regions[1]
        again = SpecRegion(entry.region, entry.constraint)
        assert again.region is entry.region
        assert again.constraint is entry.constraint

    def test_prepared_values_are_cached(self):
        for entry in self.spec_of_every_kind().regions:
            assert entry.normalized is entry.normalized
            assert entry.digest is entry.digest
            assert entry.constraint_key == entry.constraint.a.tobytes() + entry.constraint.b.tobytes()
            assert entry.dimension == 2
        spec = self.spec_of_every_kind()
        assert [entry.is_point for entry in spec.regions] == [False, False, False, False, True]

    def test_pointwise_spec_views_one_read_only_copy(self):
        points = np.arange(12.0).reshape(4, 3)
        spec = pointwise_verification_spec(points, np.array([0, 1, 0, 1]), num_classes=2)
        bases = {id(entry.region.lower.base) for entry in spec.regions}
        assert len(bases) == 1
        assert bases.pop() != id(points)
        assert spec.regions[0].constraint is spec.regions[2].constraint
        points[0, 0] = -1.0  # the caller's points stay writable and unshared
        assert spec.regions[0].region.lower[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            spec.regions[3].region.upper[2] = 0.0


class TestSyrennVerifier:
    def test_certifies_clean_segment(self, toy_network):
        report = SyrennVerifier().verify(toy_network, toy_spec(violated=False))
        assert report.region_statuses == [RegionStatus.CERTIFIED]
        assert report.certified and report.clean
        assert not report.counterexamples
        assert report.region_margins[0] <= 0.0

    def test_finds_violation_with_margin(self, toy_network):
        # N₁(-1) = 1, so the worst margin against y ≤ 0.5 is exactly 0.5.
        report = SyrennVerifier().verify(toy_network, toy_spec(violated=True))
        assert report.region_statuses == [RegionStatus.VIOLATED]
        assert not report.certified
        worst = max(report.counterexamples, key=lambda c: c.margin)
        assert worst.margin == pytest.approx(0.5)
        assert worst.point == pytest.approx(np.array([-1.0]))
        assert worst.activation_point is not None

    def test_counterexamples_are_real(self, plane_network):
        spec = VerificationSpec()
        spec.add_plane(
            [[-1, -1], [1, -1], [1, 1], [-1, 1]], HPolytope.argmax_region(3, 0)
        )
        report = SyrennVerifier().verify(plane_network, spec)
        for cex in report.counterexamples:
            output = plane_network.compute(cex.point)
            assert cex.constraint.violation(output) == pytest.approx(cex.margin, abs=1e-9)

    def test_box_matches_equivalent_plane(self, plane_network):
        constraint = HPolytope.argmax_region(3, 0)
        as_box = VerificationSpec()
        as_box.add_box([-1, -0.5], [1, 0.5], constraint)
        as_plane = VerificationSpec()
        as_plane.add_plane([[-1, -0.5], [1, -0.5], [1, 0.5], [-1, 0.5]], constraint)
        box_report = SyrennVerifier().verify(plane_network, as_box)
        plane_report = SyrennVerifier().verify(plane_network, as_plane)
        assert box_report.region_statuses == plane_report.region_statuses
        assert box_report.region_margins[0] == pytest.approx(plane_report.region_margins[0])

    def test_degenerate_and_high_dimensional_boxes(self, plane_network):
        constraint = HPolytope.argmax_region(3, 0)
        spec = VerificationSpec()
        spec.add_box([0.3, 0.3], [0.3, 0.3], constraint)       # a single point
        spec.add_box([0.0, 0.3], [1.0, 0.3], constraint)       # a segment
        report = SyrennVerifier().verify(plane_network, spec)
        assert all(
            status in (RegionStatus.CERTIFIED, RegionStatus.VIOLATED)
            for status in report.region_statuses
        )
        # A ≥3-D box is beyond the 1-D/2-D SyReNN substrate.
        wide = Network([FullyConnectedLayer.from_shape(3, 2, np.random.default_rng(0))])
        spec3 = VerificationSpec()
        spec3.add_box([0, 0, 0], [1, 1, 1], HPolytope([[1.0, 0.0]], [10.0]))
        report3 = SyrennVerifier().verify(wide, spec3)
        assert report3.region_statuses == [RegionStatus.UNKNOWN]

    def test_non_pwl_network_rejected(self):
        network = Network(
            [
                FullyConnectedLayer(np.array([[1.0]]), np.array([0.0])),
                TanhLayer(1),
                FullyConnectedLayer(np.array([[1.0]]), np.array([0.0])),
            ]
        )
        spec = VerificationSpec()
        spec.add_segment(LineSegment([0.0], [1.0]), HPolytope([[1.0]], [10.0]))
        from repro.exceptions import NotPiecewiseLinearError

        with pytest.raises(NotPiecewiseLinearError):
            SyrennVerifier().verify(network, spec)

    def test_partition_cache_reused_across_rounds(self, toy_network):
        verifier = SyrennVerifier()
        spec = toy_spec(violated=True)
        ddnn = DecoupledNetwork.from_network(toy_network)
        verifier.verify(ddnn, spec)
        assert len(verifier.cache) == 1
        # A value-channel edit keeps the activation channel (and the cache key).
        ddnn.apply_parameter_delta(2, np.zeros(ddnn.value.layers[2].num_parameters))
        verifier.verify(ddnn, spec)
        assert len(verifier.cache) == 1
        # A rebuilt-but-identical spec hits the same cache entry, while a
        # geometrically different region gets its own.
        verifier.verify(ddnn, toy_spec(violated=True))
        assert len(verifier.cache) == 1
        verifier.verify(ddnn, toy_spec(violated=False))
        assert len(verifier.cache) == 2

    def test_cache_keyed_by_geometry_not_object_identity(self, toy_network):
        """Editing a spec in place must not serve stale decompositions."""
        verifier = SyrennVerifier()
        spec = toy_spec(violated=True)
        first = verifier.verify(toy_network, spec)
        assert first.region_statuses == [RegionStatus.VIOLATED]
        # Regions are immutable: swap the list entry for the clean segment
        # inside the *same* spec object.
        spec.regions[0] = SpecRegion(LineSegment([0.0], [2.0]), spec.regions[0].constraint)
        second = verifier.verify(toy_network, spec)
        assert second.region_statuses == [RegionStatus.CERTIFIED]

    def test_ddnn_vertices_pinned_to_region(self, toy_network):
        """Repairing the pooled vertices certifies the region (Appendix B)."""
        spec = toy_spec(violated=True)
        report = SyrennVerifier().verify(
            DecoupledNetwork.from_network(toy_network), spec
        )
        points = np.array([c.point for c in report.counterexamples])
        activations = np.array([c.activation_point for c in report.counterexamples])
        constraints = [
            HPolytope(c.constraint.a, c.constraint.b - 1e-6)
            for c in report.counterexamples
        ]
        repair_spec = PointRepairSpec(
            points=points, constraints=constraints, activation_points=activations
        )
        result = point_repair(toy_network, 2, repair_spec)
        assert result.feasible
        after = SyrennVerifier().verify(result.network, spec)
        assert after.certified


class TestStackedReport:
    """The single stacked evaluation against the per-linear-region oracle."""

    @staticmethod
    def mixed_spec() -> VerificationSpec:
        spec = VerificationSpec()
        for target in range(3):
            constraint = HPolytope.argmax_region(3, target)
            spec.add_box([0.3, 0.3], [0.3, 0.3], constraint)  # a single point
            spec.add_plane([[-1, -1], [1, -1], [1, 1], [-1, 1]], constraint)
            spec.add_segment(LineSegment([-1.0, 0.5], [1.0, -0.5]), constraint)
            spec.add_plane([[0, 0], [1, 0], [0, 1]], constraint)
            spec.add_plane([[-1, -1], [1, -1], [1, 1], [-1, 1]], constraint)  # a repeat
        return spec

    @pytest.mark.parametrize("region_counterexamples", [False, True])
    @pytest.mark.parametrize("warm_cache", [False, True])
    def test_matches_oracle(self, plane_network, rng, region_counterexamples, warm_cache):
        ddnn = DecoupledNetwork.from_network(plane_network)
        layer = ddnn.repairable_layer_indices()[-1]
        ddnn.apply_parameter_delta(
            layer, 0.3 * rng.normal(size=ddnn.value.layers[layer].num_parameters)
        )
        spec = self.mixed_spec()
        for network in (plane_network, ddnn):
            cache = PartitionCache(disk=False)
            if warm_cache:
                # Another verifier fills the shared cache, so this report is
                # built from the decompositions the cache serves.
                SyrennVerifier(cache=cache).verify(network, spec)
            misses = cache.stats.memory.misses
            report = SyrennVerifier(
                cache=cache, region_counterexamples=region_counterexamples
            ).verify(network, spec)
            assert (cache.stats.memory.misses == misses) is warm_cache
            expected = oracle_verify(
                network, spec, region_counterexamples=region_counterexamples
            )
            assert report.region_statuses == expected.region_statuses
            assert report.region_margins == expected.region_margins
            assert report.points_checked == expected.points_checked
            assert report.linear_regions_checked == expected.linear_regions_checked
            assert not report.value_only
            assert len(report.counterexamples) == len(expected.counterexamples) > 0
            for ours, theirs in zip(report.counterexamples, expected.counterexamples):
                assert type(ours) is type(theirs)
                assert ours.point.tobytes() == theirs.point.tobytes()
                assert ours.margin == theirs.margin
                assert ours.region_index == theirs.region_index
                assert ours.activation_point.tobytes() == theirs.activation_point.tobytes()

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_region_without_linear_regions_is_certified(self, plane_network, empty):
        """A zero-region decomposition reports -inf, never a neighbour's margin."""
        spec = VerificationSpec()
        for _ in range(3):
            spec.add_plane(
                [[-1, -1], [1, -1], [1, 1], [-1, 1]], HPolytope.argmax_region(3, 0)
            )
        reference = SyrennVerifier().verify(plane_network, spec)
        assert reference.region_statuses == [RegionStatus.VIOLATED] * 3
        verifier = SyrennVerifier()
        decompose_all = verifier._decompose_all

        def with_empty_region(*args):
            decomposed = list(decompose_all(*args))
            decomposed[empty] = []
            return decomposed

        verifier._decompose_all = with_empty_region
        report = verifier.verify(plane_network, spec)
        for index in range(3):
            if index == empty:
                assert report.region_statuses[index] is RegionStatus.CERTIFIED
                assert report.region_margins[index] == float("-inf")
            else:
                assert report.region_statuses[index] is reference.region_statuses[index]
                assert report.region_margins[index] == reference.region_margins[index]
        assert {example.region_index for example in report.counterexamples} == (
            {0, 1, 2} - {empty}
        )


class TestSamplingVerifiers:
    @pytest.mark.parametrize("verifier_class", [GridVerifier, RandomVerifier])
    def test_never_certifies(self, toy_network, verifier_class):
        report = verifier_class().verify(toy_network, toy_spec(violated=False))
        assert report.region_statuses == [RegionStatus.UNKNOWN]
        assert not report.certified
        assert report.clean

    def test_agreement_with_exact_verifier(self, toy_network, plane_network):
        """No sampling verifier may report clean where SyReNN proves violated."""
        specs = [toy_spec(violated=True), toy_spec(violated=False)]
        plane_spec = VerificationSpec()
        plane_spec.add_plane(
            [[-1, -1], [1, -1], [1, 1], [-1, 1]], HPolytope.argmax_region(3, 0)
        )
        for network, spec in [
            (toy_network, specs[0]),
            (toy_network, specs[1]),
            (plane_network, plane_spec),
        ]:
            exact = SyrennVerifier().verify(network, spec)
            for sampler in (GridVerifier(resolution=32), RandomVerifier(512, seed=3)):
                sampled = sampler.verify(network, spec)
                for exact_status, sampled_status in zip(
                    exact.region_statuses, sampled.region_statuses
                ):
                    assert sampled_status is not RegionStatus.CERTIFIED
                    if exact_status is RegionStatus.VIOLATED:
                        assert sampled_status is RegionStatus.VIOLATED
                    else:
                        assert sampled_status is RegionStatus.UNKNOWN

    def test_counterexamples_sorted_and_capped(self, toy_network):
        verifier = GridVerifier(resolution=64, max_counterexamples_per_region=5)
        report = verifier.verify(toy_network, toy_spec(violated=True))
        margins = [c.margin for c in report.counterexamples]
        assert len(margins) == 5
        assert margins == sorted(margins, reverse=True)

    def test_box_sampling(self, plane_network, rng):
        spec = VerificationSpec()
        spec.add_box([-1, -1], [1, 1], HPolytope([[1e6, 0.0, 0.0]], [-1e9]))
        for verifier in (GridVerifier(resolution=5), RandomVerifier(64, seed=0)):
            report = verifier.verify(plane_network, spec)
            assert report.region_statuses == [RegionStatus.VIOLATED]
            assert report.points_checked > 0

    def test_grid_box_lattice_capped(self, rng):
        wide = Network([FullyConnectedLayer.from_shape(5, 2, rng)])
        spec = VerificationSpec()
        spec.add_box([0] * 5, [1] * 5, HPolytope([[1.0, 0.0]], [1e9]))
        verifier = GridVerifier(resolution=16, max_points_per_region=1000)
        report = verifier.verify(wide, spec)
        assert report.points_checked <= 1000

    def test_polygon_grid_has_no_duplicate_points(self):
        from repro.verify.sampling import _polygon_grid

        pentagon = np.array(
            [[0.0, 0.0], [2.0, 0.0], [3.0, 1.5], [1.0, 3.0], [-1.0, 1.5]]
        )
        points = _polygon_grid(pentagon, resolution=8)
        unique = np.unique(np.round(points, 9), axis=0)
        assert unique.shape[0] == points.shape[0]
        # Every polygon vertex is still sampled (worst margins sit at corners).
        for vertex in pentagon:
            assert np.any(np.all(np.isclose(points, vertex), axis=1))

    def test_random_verifier_reproducible(self, toy_network):
        reports = [
            RandomVerifier(num_samples=64, seed=42).verify(toy_network, toy_spec(True))
            for _ in range(2)
        ]
        first, second = (np.array([c.point for c in r.counterexamples]) for r in reports)
        np.testing.assert_array_equal(first, second)

    def test_successive_sweeps_probe_fresh_points(self, toy_network):
        """One verifier's repeated sweeps continue its stream: new points each pass."""
        verifier = RandomVerifier(16, seed=5)
        first = verifier.verify(toy_network, toy_spec(True))
        second = verifier.verify(toy_network, toy_spec(True))
        assert first.counterexamples and second.counterexamples
        assert (
            first.counterexamples[0].point.tobytes()
            != second.counterexamples[0].point.tobytes()
        )


class TestVerificationReport:
    def test_accounting_and_as_dict(self, toy_network):
        spec = VerificationSpec()
        spec.add_segment(LineSegment([-1.0], [2.0]), HPolytope([[1.0]], [0.5]))
        spec.add_segment(LineSegment([0.0], [2.0]), HPolytope([[1.0]], [0.5]))
        report = SyrennVerifier().verify(toy_network, spec)
        assert report.num_regions == 2
        assert report.num_certified + report.num_violated + report.num_unknown == 2
        summary = report.as_dict()
        assert summary["num_violated"] == 1
        assert summary["num_certified"] == 1
        assert summary["certified"] is False
        assert summary["points_checked"] == report.points_checked
