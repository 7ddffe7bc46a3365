"""Tests for polytope-CEGIS: driver mode="polytope" and the pool key fixes.

Three layers of pinning:

* **pool dedup regressions** — the signed-zero / float32 key-normalization
  bugs (equal counterexamples must never evade dedup, or the driver's stall
  detection can be fooled forever), activation-pattern-aware region keys,
  and the region checkpoint/resume round-trip;
* a **differential matrix** (solver × oracle assembly × chunk budget)
  pinning the polytope driver's round-1 repair byte-identical to
  one-shot :func:`~repro.core.polytope_repair.polytope_repair` on the same
  spec — the two must build the same LP row for row when every region is
  violated — and the one-shot LP to the per-point oracle, dense or sparse;
* **loop tests** for certification end to end: rationed vs unrationed
  runs, region counterexamples flowing through
  checkpoint/resume, and the per-region key-point reduction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ddnn import DecoupledNetwork
from repro.core.polytope_repair import (
    count_key_points,
    decompose_spec_entries,
    polytope_repair,
    reduce_to_key_points,
    region_key_points,
)
from repro.core.specs import (
    PointRepairSpec,
    PolytopeRepairSpec,
    classification_constraint,
    dedupe_exact_vertices,
)
from repro.driver import CounterexamplePool, DriverConfig, RepairDriver
from repro.exceptions import RepairError, SpecificationError
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.utils.rng import ensure_rng
from repro.verify import (
    Counterexample,
    RegionCounterexample,
    SyrennVerifier,
    VerificationSpec,
)
from repro.verify.exact import contiguous_spans
from tests.conftest import lp_solver, make_random_relu_network
from tests.oracle import oracle_point_repair, oracle_verify

CONSTRAINT = HPolytope([[1.0, 0.0]], [0.5])


def point_ce(values, constraint=CONSTRAINT, margin=1.0, region=0) -> Counterexample:
    return Counterexample(
        point=np.asarray(values), constraint=constraint, margin=margin, region_index=region
    )


def region_ce(
    vertices, interior, worst=0, constraint=CONSTRAINT, margin=1.0, region=0
) -> RegionCounterexample:
    vertices = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    return RegionCounterexample(
        point=vertices[worst],
        constraint=constraint,
        margin=margin,
        region_index=region,
        activation_point=np.asarray(interior, dtype=np.float64),
        vertices=vertices,
    )


@pytest.fixture(scope="module")
def polytope_scenario():
    """A seeded scenario whose specification violates *every* linear region.

    The required class is one the buggy network never predicts on the spec
    geometry, so each linear region has at least one violating vertex.  That
    makes the polytope driver's round-1 pool expand to exactly the key
    points one-shot Algorithm 2 generates — the differential tests depend
    on it and re-assert it as a precondition.
    """
    rng = ensure_rng(3)
    # Small enough that the reference simplex solves the one-shot LP too
    # (the differential matrix covers both solvers).
    network = make_random_relu_network(rng, (2, 6, 5, 3))
    predictions = network.predict(rng.uniform(-1.0, 1.0, size=(500, 2)))
    loser = int(np.argmin(np.bincount(predictions, minlength=3)))
    spec = PolytopeRepairSpec()
    spec.add_segment(
        LineSegment([-1.0, -0.5], [1.0, 0.75]), classification_constraint(3, loser, 1e-3)
    )
    spec.add_plane(
        [[-0.6, -0.6], [0.6, -0.6], [0.6, 0.6], [-0.6, 0.6]],
        classification_constraint(3, loser, 1e-3),
    )
    verifier = SyrennVerifier(region_counterexamples=True)
    report = verifier.verify(network, VerificationSpec.from_polytope_spec(spec))
    assert report.num_violated == report.num_regions  # every spec region violated
    assert len(report.counterexamples) == report.linear_regions_checked
    return network, spec


def layer_bytes(network) -> list[bytes]:
    ddnn = (
        network
        if isinstance(network, DecoupledNetwork)
        else DecoupledNetwork.from_network(network)
    )
    return [
        ddnn.value.layers[index].get_parameters().tobytes()
        for index in ddnn.repairable_layer_indices()
    ]


class TestPoolKeyNormalization:
    """Regression tests for the dedup-key bugs (signed zero, dtype)."""

    def test_negative_zero_point_is_a_duplicate(self):
        pool = CounterexamplePool()
        assert pool.add(point_ce([0.0, 1.0]))
        assert not pool.add(point_ce([-0.0, 1.0]))
        assert len(pool) == 1

    def test_rounding_minted_negative_zero_is_a_duplicate(self):
        # np.round(-1e-12, 9) == -0.0: the sign bit is minted *by* rounding,
        # so normalization must collapse signed zero after the rounding step.
        pool = CounterexamplePool(decimals=9)
        assert pool.add(point_ce([0.0, 1.0]))
        assert not pool.add(point_ce([-1e-12, 1.0]))

    def test_float32_duplicate_is_rejected(self):
        pool = CounterexamplePool()
        assert pool.add(point_ce(np.array([0.25, 1.0], dtype=np.float64)))
        assert not pool.add(point_ce(np.array([0.25, 1.0], dtype=np.float32)))

    def test_negative_zero_region_vertex_is_a_duplicate(self):
        pool = CounterexamplePool()
        assert pool.add(region_ce([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.0]))
        assert not pool.add(region_ce([[-0.0, 0.0], [1.0, 0.0]], [0.5, 0.0]))

    def test_counterexample_coerces_to_float64(self):
        ce = Counterexample(
            point=np.array([0.25, 1.0], dtype=np.float32),
            constraint=CONSTRAINT,
            margin=np.float32(0.5),
            region_index=0,
            activation_point=np.array([0.1, 0.2], dtype=np.float32),
        )
        assert ce.point.dtype == np.float64
        assert ce.activation_point.dtype == np.float64
        assert isinstance(ce.margin, float)

    def test_region_counterexample_validation(self):
        with pytest.raises(SpecificationError):
            RegionCounterexample(
                point=np.zeros(2), constraint=CONSTRAINT, margin=1.0, region_index=0
            )
        with pytest.raises(SpecificationError):
            RegionCounterexample(
                point=np.zeros(2),
                constraint=CONSTRAINT,
                margin=1.0,
                region_index=0,
                vertices=np.zeros((2, 2)),
            )


class TestPoolRegionCounterexamples:
    def test_region_dedup_ignores_worst_vertex_and_margin(self):
        # Across repair rounds the same violating region may surface with a
        # different worst vertex and margin; it is still the same region.
        pool = CounterexamplePool()
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]
        assert pool.add(region_ce(vertices, [0.5, 0.3], worst=0, margin=2.0))
        assert not pool.add(region_ce(vertices, [0.5, 0.3], worst=2, margin=0.25))
        # A different linear region (different interior) is new.
        assert pool.add(region_ce(vertices, [0.25, 0.1], worst=0))

    def test_region_and_point_keys_never_collide(self):
        pool = CounterexamplePool()
        vertices = np.array([[0.0, 0.0]])
        assert pool.add(region_ce(vertices, [0.0, 0.0]))
        assert pool.add(point_ce([0.0, 0.0]))
        assert len(pool) == 2

    def test_point_spec_expands_regions_to_vertices(self):
        pool = CounterexamplePool()
        pool.add(region_ce([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]], [0.5, 0.3]))
        pool.add(point_ce([2.0, 2.0]))
        assert pool.num_key_points == 4
        spec = pool.point_spec(margin=0.125)
        assert spec.num_points == 4
        np.testing.assert_array_equal(spec.activation_points[0], [0.5, 0.3])
        np.testing.assert_array_equal(spec.activation_points[2], [0.5, 0.3])
        np.testing.assert_array_equal(spec.activation_points[3], [2.0, 2.0])
        np.testing.assert_allclose(spec.constraints[0].b, [0.375])

    def test_point_spec_start_slices_entries_not_points(self):
        pool = CounterexamplePool()
        pool.add(region_ce([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.0]))
        pool.add(region_ce([[3.0, 0.0], [4.0, 0.0], [3.5, 1.0]], [3.5, 0.3]))
        suffix = pool.point_spec(start=1)
        assert suffix.num_points == 3
        np.testing.assert_array_equal(suffix.points[0], [3.0, 0.0])

    def test_checkpoint_roundtrip_with_regions(self, tmp_path):
        pool = CounterexamplePool(decimals=7)
        pool.add(region_ce([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]], [0.5, 0.3], margin=0.75))
        pool.add(point_ce([2.0, 2.0], margin=0.5))
        path = tmp_path / "region-pool.npz"
        pool.save(path)
        restored = CounterexamplePool.load(path)
        assert len(restored) == 2
        assert restored.num_key_points == 4
        loaded = restored.counterexamples[0]
        assert isinstance(loaded, RegionCounterexample)
        np.testing.assert_array_equal(
            loaded.vertices, pool.counterexamples[0].vertices
        )
        assert not isinstance(restored.counterexamples[1], RegionCounterexample)
        # Restored entries are still duplicates of their originals.
        assert not restored.add(pool.counterexamples[0])
        assert not restored.add(pool.counterexamples[1])

    def test_unsatisfied_checks_every_region_vertex(self, toy_network):
        pool = CounterexamplePool()
        # N₁(-1) = 1 > 0.5 violates; N₁(0.5) = -0.5 satisfies.  The region
        # below is unsatisfied only because of its *second* vertex.
        pool.add(
            RegionCounterexample(
                point=np.array([0.5]),
                constraint=HPolytope([[1.0]], [0.5]),
                margin=1.0,
                region_index=0,
                activation_point=np.array([0.25]),
                vertices=np.array([[0.5], [-1.0]]),
            )
        )
        pool.add(point_ce([0.5], constraint=HPolytope([[1.0]], [0.5])))
        assert pool.unsatisfied(toy_network) == [0]


class TestKeyPointReduction:
    """The per-region refactor of Algorithm 2's reduction."""

    def test_reduce_matches_per_region_composition(self, rng):
        network = make_random_relu_network(rng, (2, 8, 6, 3))
        spec = PolytopeRepairSpec()
        spec.add_segment(
            LineSegment([-1.0, 0.0], [1.0, 0.5]), classification_constraint(3, 0)
        )
        spec.add_plane(
            [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]], classification_constraint(3, 1)
        )
        key_points, activations, constraints = reduce_to_key_points(network, spec)
        rebuilt_points, rebuilt_activations = [], []
        for entry in spec.entries:
            for region in decompose_spec_entries(network, [entry.region])[0]:
                points, acts, cons = region_key_points(
                    region.vertices, region.interior, entry.constraint
                )
                rebuilt_points.extend(points)
                rebuilt_activations.extend(acts)
                assert all(c is entry.constraint for c in cons)
        assert np.array(key_points).tobytes() == np.array(rebuilt_points).tobytes()
        assert np.array(activations).tobytes() == np.array(rebuilt_activations).tobytes()
        assert len(constraints) == len(key_points)

    def test_table2_line_spec_counts_unchanged(self, rng):
        """Table-2-shaped fog-line specs: one key point per (region, endpoint)."""
        network = make_random_relu_network(rng, (6, 10, 8, 4))
        lines = [
            LineSegment(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)) for _ in range(3)
        ]
        spec = PolytopeRepairSpec.from_segments(
            lines, [classification_constraint(4, i % 4) for i in range(3)]
        )
        expected = sum(
            2 * len(transform_line(network, line).regions) for line in lines
        )
        assert count_key_points(network, spec) == expected

    def test_duplicate_plane_vertices_do_not_bloat_the_lp(self, rng):
        network = make_random_relu_network(rng, (2, 8, 6, 3))
        triangle = [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]
        clean = PolytopeRepairSpec()
        clean.add_plane(triangle, classification_constraint(3, 0))
        doubled = PolytopeRepairSpec()
        doubled.add_plane(
            triangle + triangle, classification_constraint(3, 0)
        )
        assert count_key_points(network, doubled) == count_key_points(network, clean)
        points, _, _ = reduce_to_key_points(network, doubled)
        assert len(points) > 0

    def test_dedupe_exact_vertices_preserves_order(self):
        vertices = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(
            dedupe_exact_vertices(vertices), [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
        )
        clean = np.array([[3.0, 1.0], [0.0, 1.0]])
        assert dedupe_exact_vertices(clean) is clean

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        rows=st.integers(1, 100),
        columns=st.integers(1, 4),
    )
    def test_dedupe_exact_vertices_matches_unique(self, seed, rows, columns):
        """Same rows as a first-seen ``np.unique``, on both sides of the pairwise cut-off.

        Entries come from a small pool with ``0.0``/``-0.0`` and a value
        next to ``1.0``, so exact, signed-zero and near duplicates all occur.
        """
        rng = ensure_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), -2.5])
        vertices = pool[rng.integers(0, pool.size, size=(rows, columns))]
        if rng.random() < 0.3:  # mostly-distinct rows
            vertices = vertices + rng.permutation(rows)[:, None].astype(float)
        _, first_seen = np.unique(vertices, axis=0, return_index=True)
        expected = vertices[np.sort(first_seen)]
        deduped = dedupe_exact_vertices(vertices)
        assert deduped.tobytes() == expected.tobytes()
        assert (deduped is vertices) == (expected.shape[0] == rows)

    def test_contiguous_spans(self):
        assert contiguous_spans([]) == []
        assert contiguous_spans([7]) == [(0, 1)]
        assert contiguous_spans([0, 0, 1, 1, 1, 4]) == [(0, 2), (2, 5), (5, 6)]


class TestPolytopeDriverDifferential:
    """Round 1 of the polytope driver must equal one-shot Algorithm 2.

    On an all-regions-violated spec the round-1 pool expands to exactly the
    key points ``reduce_to_key_points`` generates, in the same order, so the
    repair LP — and therefore the applied delta — must be byte-identical,
    on the solver and the reference simplex, across chunk budgets (``budgeted`` streams the rows in tiny
    chunks).  The one-shot repair itself is
    checked against the per-point oracle once, assembled dense and sparse.
    """

    @pytest.mark.parametrize("sparse", [False, True])
    def test_one_shot_matches_oracle(self, polytope_scenario, sparse):
        # The LP itself is pinned on scipy: the reference simplex lands on
        # last-bit-different LPs at visibly different (inexact) optima.
        network, spec = polytope_scenario
        layer = DecoupledNetwork.from_network(network).repairable_layer_indices()[-1]
        one_shot = polytope_repair(network, layer, spec)
        assert one_shot.feasible
        points, activations, constraints = reduce_to_key_points(network, spec)
        oracle = oracle_point_repair(
            network,
            layer,
            PointRepairSpec(
                points=np.array(points),
                constraints=constraints,
                activation_points=np.array(activations),
            ),
            sparse=sparse,
        )
        assert oracle.objective_value == pytest.approx(
            one_shot.objective_value, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize(
        "backend,budgeted",
        [("scipy", False), ("scipy", True), ("simplex", False), ("simplex", True)],
    )
    def test_round1_matches_one_shot(self, polytope_scenario, backend, budgeted):
        network, spec = polytope_scenario
        layer = DecoupledNetwork.from_network(network).repairable_layer_indices()[-1]
        with lp_solver(backend):
            one_shot = polytope_repair(network, layer, spec)
        assert one_shot.feasible

        with lp_solver(backend):
            report = RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(
                    mode="polytope",
                    layer_schedule=[layer],
                    max_rounds=1,
                    repair_margin=0.0,
                    memory_budget=4_096 if budgeted else None,
                ),
            ).run()

        # Precondition: the pool expanded to one-shot's exact key points.
        assert report.rounds[0].pool_key_points == one_shot.num_key_points
        assert report.rounds[0].repair_feasible
        assert layer_bytes(report.network) == layer_bytes(one_shot.network)

    def test_polytope_pool_entries_are_regions(self, polytope_scenario):
        network, spec = polytope_scenario
        driver = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(mode="polytope", max_rounds=1),
        )
        driver.run()
        assert len(driver.pool) > 0
        assert all(
            isinstance(entry, RegionCounterexample)
            for entry in driver.pool.counterexamples
        )


class TestPolytopeDriverLoop:
    def test_certifies_and_modes_match(self, polytope_scenario):
        network, spec = polytope_scenario
        unrationed = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(mode="polytope", max_rounds=10),
        ).run()
        rationed = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(
                mode="polytope",
                max_rounds=10,
                max_new_counterexamples=8,
            ),
        ).run()
        assert unrationed.status == "certified" and unrationed.certified
        assert rationed.status == "certified"
        assert unrationed.mode == rationed.mode == "polytope"
        assert unrationed.unsatisfied_pool_indices == []
        assert rationed.unsatisfied_pool_indices == []
        assert rationed.value_only_rounds > 0
        summary = unrationed.as_dict()
        assert summary["mode"] == "polytope"
        assert summary["rounds"][0]["pool_key_points"] >= summary["rounds"][0]["pool_size"]

    def test_region_checkpoint_resume_through_driver(self, polytope_scenario, tmp_path):
        network, spec = polytope_scenario
        path = tmp_path / "region-checkpoint.npz"
        first = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(mode="polytope", max_rounds=1, delta_bound=1e-12),
            checkpoint_path=path,
        ).run()
        assert first.status == "infeasible"
        assert path.exists()
        resumed = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(mode="polytope", max_rounds=10),
            checkpoint_path=path,
        )
        assert len(resumed.pool) == first.pool_size
        assert all(
            isinstance(entry, RegionCounterexample)
            for entry in resumed.pool.counterexamples
        )
        report = resumed.run()
        assert report.status == "certified"
        # Round 0 re-finds only already-pooled regions: dedup must hold.
        assert report.rounds[0].new_counterexamples == 0
        assert report.rounds[0].repair_attempted

    def test_verifier_flag_restored_after_run(self, polytope_scenario):
        network, spec = polytope_scenario
        verifier = SyrennVerifier()
        assert verifier.region_counterexamples is False
        RepairDriver(
            network,
            spec,
            verifier,
            config=DriverConfig(mode="polytope", max_rounds=10),
        ).run()
        assert verifier.region_counterexamples is False

    def test_value_only_region_counterexamples_match_slow_path(self, polytope_scenario):
        network, spec = polytope_scenario
        vspec = VerificationSpec.from_polytope_spec(spec)
        slow = oracle_verify(network, vspec, region_counterexamples=True)
        fast_verifier = SyrennVerifier(region_counterexamples=True)
        first = fast_verifier.verify(network, vspec)  # populate the fast-path slot
        fast = fast_verifier.verify(network, vspec)
        assert fast.value_only
        for report in (first, fast):
            assert slow.region_statuses == report.region_statuses
            assert slow.region_margins == report.region_margins
            assert len(slow.counterexamples) == len(report.counterexamples)
            for a, b in zip(slow.counterexamples, report.counterexamples):
                assert isinstance(b, RegionCounterexample)
                assert a.point.tobytes() == b.point.tobytes()
                assert a.vertices.tobytes() == b.vertices.tobytes()
                assert a.margin == b.margin
                assert a.region_index == b.region_index
                assert (
                    a.resolved_activation_point().tobytes()
                    == b.resolved_activation_point().tobytes()
                )

    def test_mode_validation(self, polytope_scenario):
        network, spec = polytope_scenario
        with pytest.raises(RepairError):
            RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(mode="points"),
            )
        with pytest.raises(RepairError):
            RepairDriver(network, spec, SyrennVerifier())  # PolytopeRepairSpec, point mode
        # A plain VerificationSpec is accepted in polytope mode.
        driver = RepairDriver(
            network,
            VerificationSpec.from_polytope_spec(spec),
            SyrennVerifier(),
            config=DriverConfig(mode="polytope", max_rounds=1),
        )
        assert driver.mode == "polytope"
