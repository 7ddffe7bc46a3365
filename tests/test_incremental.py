"""Tests for the incremental CEGIS infrastructure.

Three layers of pinning:

* a **property-based oracle** (hypothesis) for the paper's partition-
  invariance claim — value-channel point repair never changes the
  activation network's linear-region geometry, which is what makes the
  value-only re-verification fast path sound by construction;
* a **differential matrix** (``parametrize`` over solver × oracle
  assembly) asserting the driver's final repair matches a
  one-shot ``point_repair`` of its final pool on the strengthened ACAS φ8
  spec — same verdict, same objective, every pooled row satisfied;
* unit tests for the new pieces: :class:`LPSession` append/solve and the
  driver's incremental bookkeeping.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import IncrementalPointRepairSession, point_repair
from repro.core.result import RepairTiming
from repro.core.specs import PointRepairSpec
from repro.datasets.acas import phi8_property
from repro.driver import DriverConfig, RepairDriver
from repro.exceptions import LPError
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.lp.model import LPSession
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.models.acas_models import build_acas_network
from repro.obs import Trace, use_trace
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.syrenn.plane import transform_plane
from repro.syrenn.regions import geometry_digest
from repro.utils.rng import ensure_rng
from repro.utils.serialization import network_fingerprint
from repro.verify import SpecRegion, SyrennVerifier, VerificationSpec
from tests.conftest import lp_solver, make_random_relu_network
from tests.oracle import (
    max_row_violation,
    oracle_point_repair,
    oracle_verify,
    solve_cold,
)


@pytest.fixture(scope="module")
def acas_phi8():
    """A small untrained ACAS advisory network plus the strengthened φ8 spec."""
    seed_rng = ensure_rng(7)
    network = build_acas_network(hidden_size=8, hidden_layers=2, seed=7)
    safety_property = phi8_property()
    slices = [safety_property.random_slice(seed_rng) for _ in range(3)]
    empty = np.zeros((0, 5))
    setup = Task3Setup(network, safety_property, slices, empty, empty, 0)
    return network, strengthened_verification_spec(network, setup)


def value_parameters(report) -> list[bytes]:
    return value_parameters_of(report.network)


def value_parameters_of(network: DecoupledNetwork) -> list[bytes]:
    return [
        network.value.layers[index].get_parameters().tobytes()
        for index in network.repairable_layer_indices()
    ]


def assert_reports_identical(first, second) -> None:
    assert first.region_statuses == second.region_statuses
    assert first.region_margins == second.region_margins
    assert first.points_checked == second.points_checked
    assert first.linear_regions_checked == second.linear_regions_checked
    assert len(first.counterexamples) == len(second.counterexamples)
    for a, b in zip(first.counterexamples, second.counterexamples):
        assert a.point.tobytes() == b.point.tobytes()
        assert a.margin == b.margin
        assert a.region_index == b.region_index
        assert a.resolved_activation_point().tobytes() == (
            b.resolved_activation_point().tobytes()
        )


class TestPartitionInvariance:
    """The paper's Theorem 4.6, pinned as a property-based oracle.

    Value-channel repair must leave the activation network — and therefore
    every linear-region boundary — untouched, byte for byte.  This is the
    soundness argument of the value-only re-verification fast path: if these
    digests could move, re-evaluating cached vertex sets would be wrong.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_geometry_digests_unchanged_by_point_repair(self, seed):
        rng = ensure_rng(seed)
        network = make_random_relu_network(rng, (2, 8, 6, 3))
        ddnn = DecoupledNetwork.from_network(network)
        segment = LineSegment(rng.uniform(-1, 0, 2), rng.uniform(0.5, 1.5, 2))
        square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])

        def digests(ddnn_under_test) -> tuple:
            activation = ddnn_under_test.activation
            line = transform_line(activation, segment)
            plane = transform_plane(activation, square)
            return (
                network_fingerprint(activation),
                geometry_digest(segment),
                tuple(geometry_digest(region.vertices) for region in line.regions),
                tuple(
                    geometry_digest(region.input_vertices) for region in plane.regions
                ),
            )

        before = digests(ddnn)
        points = rng.uniform(-1.0, 1.0, size=(4, 2))
        labels = rng.integers(0, 3, size=4)
        spec = PointRepairSpec.from_labels(points, labels, num_classes=3, margin=1e-4)
        result = point_repair(
            ddnn, ddnn.repairable_layer_indices()[-1], spec
        )
        assume(result.feasible)
        assert result.delta is not None
        after = digests(result.network)
        # Byte-identical digests per region: the partition geometry did not
        # move, even though the repaired function did.
        assert after == before
        assert network_fingerprint(result.network.activation) == before[0]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_value_only_fast_path_is_exact_on_random_networks(self, seed):
        """First-pass and fast-path reports equal the per-region oracle's."""
        rng = ensure_rng(seed)
        network = make_random_relu_network(rng, (2, 8, 6, 3))
        ddnn = DecoupledNetwork.from_network(network)
        from repro.polytope.hpolytope import HPolytope
        from repro.verify import VerificationSpec

        spec = VerificationSpec()
        winner = int(np.bincount(network.predict(rng.uniform(-1, 1, (64, 2)))).argmax())
        spec.add_plane(
            [[-1, -1], [1, -1], [1, 1], [-1, 1]],
            HPolytope.argmax_region(3, winner, 1e-4),
        )
        layer_index = ddnn.repairable_layer_indices()[-1]
        delta = 0.05 * rng.normal(size=ddnn.value.layers[layer_index].num_parameters)
        repaired = ddnn.with_parameter_delta(layer_index, delta)

        fast = SyrennVerifier()
        first_report = fast.verify(ddnn, spec)  # populate the fast-path slot
        fast_report = fast.verify(repaired, spec)
        assert not first_report.value_only
        assert fast_report.value_only
        assert fast.value_only_verifications == 1
        assert_reports_identical(oracle_verify(ddnn, spec), first_report)
        assert_reports_identical(oracle_verify(repaired, spec), fast_report)


class TestSyrennWorkCounters:
    """The verifier's first pass does one forward per layer, not per polygon.

    A regression to per-polygon (or per-linear-region) forwards fails here.
    """

    def test_first_pass_forwards_once_per_layer(self, acas_phi8, monkeypatch):
        import repro.syrenn.plane as plane_module
        import repro.verify.exact as exact_module

        network, spec = acas_phi8
        # Patch private layer objects: monkeypatch's undo leaves each
        # instance a bound ``forward`` that shallow copies would share.
        network = network.copy()
        forwards = {"inside": 0, "outside": 0}
        state = {"inside": False, "calls": 0, "clips": 0}
        for layer in network.layers:
            def counting(values, _forward=layer.forward):
                forwards["inside" if state["inside"] else "outside"] += 1
                return _forward(values)

            monkeypatch.setattr(layer, "forward", counting)
        transform_planes, clip = exact_module.transform_planes, plane_module._clip_coordinate

        def counted_transform(*args, **kwargs):
            state["calls"] += 1
            state["inside"] = True
            try:
                return transform_planes(*args, **kwargs)
            finally:
                state["inside"] = False

        def counted_clip(*args, **kwargs):
            state["clips"] += 1
            return clip(*args, **kwargs)

        monkeypatch.setattr(exact_module, "transform_planes", counted_transform)
        monkeypatch.setattr(plane_module, "_clip_coordinate", counted_clip)
        report = SyrennVerifier().verify(network, spec)
        assert spec.num_regions > 1
        assert report.linear_regions_checked == spec.num_regions  # already linear
        assert state["calls"] == 1
        assert forwards["inside"] == len(network.layers)
        assert state["clips"] == 0
        # ... and one stacked evaluation of every linear region's vertices.
        assert forwards["outside"] == len(network.layers)


class TestSpecPreparedOnce:
    """A driver run prepares each spec region once and decomposes in stacked steps.

    Normalization, geometry digest and input dimension are cached on the
    immutable :class:`~repro.verify.base.SpecRegion`, so the driver's
    repeated verifier passes (and the dimension checks in front of them)
    never recompute them; ``transform_planes`` takes one stacked SVD per
    distinct vertex count, not one per polygon.
    """

    def test_regions_prepared_once_and_svds_stacked(self, acas_phi8, monkeypatch):
        import repro.syrenn.plane as plane_module
        import repro.verify.base as base_module
        import repro.verify.exact as exact_module

        network, fixture_spec = acas_phi8
        # Fresh regions over the fixture's (already frozen) geometry: nothing
        # is cached on them yet.
        spec = VerificationSpec(
            [SpecRegion(entry.region, entry.constraint, entry.name) for entry in fixture_spec.regions]
        )
        calls: dict[str, Counter] = {
            "normalize": Counter(), "digest": Counter(), "dimension": Counter()
        }

        def counting(kind, function):
            def wrapped(region):
                calls[kind][id(region)] += 1
                return function(region)

            return wrapped

        monkeypatch.setattr(
            base_module, "_normalize_region", counting("normalize", base_module._normalize_region)
        )
        monkeypatch.setattr(
            base_module, "geometry_digest", counting("digest", base_module.geometry_digest)
        )
        monkeypatch.setattr(
            base_module, "_region_dimension", counting("dimension", base_module._region_dimension)
        )
        svd, transform_planes = np.linalg.svd, exact_module.transform_planes
        svds = {"inside": False, "calls": 0, "expected": 0}

        def counted_svd(*args, **kwargs):
            svds["calls"] += svds["inside"]
            return svd(*args, **kwargs)

        def counted_transform(network, polygons):
            svds["expected"] += len({np.shape(polygon)[0] for polygon in polygons})
            svds["inside"] = True
            try:
                return transform_planes(network, polygons)
            finally:
                svds["inside"] = False

        monkeypatch.setattr(plane_module.np.linalg, "svd", counted_svd)
        monkeypatch.setattr(exact_module, "transform_planes", counted_transform)
        config = DriverConfig(mode="polytope", max_rounds=10, max_new_counterexamples=4)
        report = RepairDriver(network, spec, SyrennVerifier(), config=config).run()

        assert report.status == "certified"
        assert len(report.rounds) > 1
        regions = {id(entry.region) for entry in spec.regions}
        for kind, counter in calls.items():
            assert set(counter) == regions, kind
            assert max(counter.values()) == 1, kind
        assert svds["expected"] >= 1
        assert svds["calls"] == svds["expected"]


class TestIncrementalDifferential:
    """The driver's final repair must match a one-shot repair of its final pool."""

    @pytest.mark.parametrize(
        "backend,sparse",
        [("scipy", True), ("scipy", False), ("simplex", False), ("simplex", True)],
    )
    def test_incremental_matches_cold(self, acas_phi8, backend, sparse):
        """Driver vs one-shot ``point_repair(base, layer, final pool)``.

        Same verdict and objective (1e-9 relative) on either solver, with
        every pooled row satisfied — but not the same bytes: the driver's
        session admitted its rows round by round and re-solved warm, so it
        may land on a different optimal vertex of the same LP.  The one-shot
        LP is in turn checked against the per-point oracle assembled dense
        or sparse.
        """
        network, spec = acas_phi8
        config = DriverConfig(max_rounds=20, max_new_counterexamples=4)
        with lp_solver(backend):
            driver = RepairDriver(network, spec, SyrennVerifier(), config=config)
            report = driver.run()
            assert report.status == "certified"
            assert report.value_only_rounds > 0
            assert report.unsatisfied_pool_indices == []
            layer = [r.layer_index for r in report.rounds if r.repair_feasible][-1]
            pool_spec = driver.pool.point_spec(margin=driver.repair_margin)
            one_shot = point_repair(network, layer, pool_spec)
            reference = oracle_point_repair(network, layer, pool_spec, sparse=sparse)
        assert one_shot.feasible
        assert reference.objective_value == pytest.approx(
            one_shot.objective_value, rel=1e-9, abs=1e-12
        )
        final = [r for r in report.rounds if r.repair_feasible][-1]
        assert final.delta_linf == pytest.approx(one_shot.objective_value, rel=1e-9)
        base = DecoupledNetwork.from_network(network).value.layers[layer]
        delta = report.network.value.layers[layer].get_parameters() - base.get_parameters()
        assert max_row_violation(network, layer, pool_spec, delta) <= 1e-7

    def test_rationed_intake_caps_pool_growth(self, acas_phi8):
        network, spec = acas_phi8
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=20, max_new_counterexamples=2),
        ).run()
        assert report.status == "certified"
        assert all(record.new_counterexamples <= 2 for record in report.rounds)
        # Rationing must force a genuinely multi-round run on this workload.
        assert report.num_rounds >= 4

    def test_driver_round_records_incremental_fields(self, acas_phi8):
        network, spec = acas_phi8
        with lp_solver("simplex"):
            report = RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(max_rounds=20, max_new_counterexamples=4),
            ).run()
        assert report.status == "certified"
        repaired = [r for r in report.rounds if r.repair_attempted]
        assert repaired[0].lp_rows_appended > 0
        assert report.lp_rows_appended == sum(r.lp_rows_appended for r in report.rounds)
        # The simplex reports iteration counts and retains no solver state.
        assert all(r.lp_iterations is not None for r in repaired)
        assert report.warm_started_rounds == 0
        assert report.value_only_rounds == sum(r.verify_value_only for r in report.rounds)
        summary = report.as_dict()
        for key in (
            "lp_rows_appended",
            "lp_rows_admitted",
            "warm_started_rounds",
            "value_only_rounds",
            "lp_iterations",
        ):
            assert key in summary
        assert summary["rounds"][0]["verify_value_only"] is False

    def test_driver_sessions_resolve_warm_over_admitted_rows(self, acas_phi8):
        """Each layer session's first solve is cold and its later ones warm,
        and row generation never holds more rows than the session has."""
        network, spec = acas_phi8
        with obs.isolated() as registry:
            report = RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(max_rounds=20, max_new_counterexamples=4),
            ).run()
            solves = registry.snapshot()["repro_lp_solves_total"]["series"]
        assert report.status == "certified"
        repaired = [r for r in report.rounds if r.repair_attempted]
        assert len(repaired) >= 2
        layer, session_rows = None, 0
        for record in repaired:
            first_of_session = record.layer_index != layer
            if first_of_session:
                layer = record.layer_index
                session_rows = IncrementalPointRepairSession(network, layer).session.num_rows
            session_rows += record.lp_rows_appended
            assert record.warm_start_used is not first_of_session
            assert 0 < record.lp_rows_admitted <= session_rows
        sessions = len({r.layer_index for r in repaired})
        assert report.warm_started_rounds == len(repaired) - sessions > 0
        assert report.as_dict()["lp_rows_admitted"] == max(r.lp_rows_admitted for r in repaired)
        warm_solves = sum(s["value"] for s in solves if s["labels"]["warm"] == "true")
        assert warm_solves >= report.warm_started_rounds


class TestDriverClock:
    """The span tree is the driver's only clock, and its times add up."""

    @pytest.mark.parametrize("mode", ["point", "polytope"])
    def test_timing_views_add_up_to_span_walls(self, acas_phi8, mode):
        network, spec = acas_phi8
        trace = Trace("test")
        # A collection pause lands in whichever span is open, or in none;
        # the coverage bound below is about instrumented driver code.
        gc.collect()
        gc.disable()
        try:
            with use_trace(trace):
                report = RepairDriver(
                    network,
                    spec,
                    SyrennVerifier(),
                    config=DriverConfig(mode=mode, max_rounds=20, max_new_counterexamples=4),
                ).run()
        finally:
            gc.enable()
        assert report.status == "certified"
        (run,) = trace.root.children
        assert run.name == "driver.run"
        assert report.timing.total_seconds == pytest.approx(run.wall_seconds, rel=1e-12)
        assert report.timing.verify_seconds == run.seconds_in("driver.verify")

        repairs = run.find("driver.repair")
        assert repairs and all(node in run.children for node in repairs)
        totals = dict.fromkeys(report.timing.repair.as_dict(), 0.0)
        for record in report.rounds:
            spans = [node for node in repairs if node.attributes["round"] == record.round_index]
            assert bool(spans) == record.repair_attempted
            assert record.repair_seconds == sum(node.wall_seconds for node in spans)
            round_timing = RepairTiming.from_spans(*spans)
            assert round_timing.total_seconds == pytest.approx(record.repair_seconds, rel=1e-12)
            if spans:
                assert round_timing.jacobian_seconds > 0.0 and round_timing.lp_seconds > 0.0
                assert round_timing.other_seconds >= 0.0
            for key, value in round_timing.as_dict().items():
                totals[key] += value
        assert report.timing.repair.as_dict() == pytest.approx(totals, rel=1e-9)
        verifies = [node for node in run.children if node.name == "driver.verify"]
        assert [record.seconds for record in report.rounds] == [
            node.wall_seconds for node in verifies[: len(report.rounds)]
        ]
        covered = sum(node.wall_seconds for node in run.children)
        assert covered >= 0.95 * run.wall_seconds


class TestIncrementalRepairSession:
    def toy_pool_spec(self, rng, count):
        network = make_random_relu_network(rng, (2, 8, 6, 3))
        points = rng.uniform(-1.0, 1.0, size=(count, 2))
        labels = rng.integers(0, 3, size=count)
        return network, PointRepairSpec.from_labels(
            points, labels, num_classes=3, margin=1e-4
        )

    def test_session_matches_cold_point_repair(self, rng):
        network, spec = self.toy_pool_spec(rng, 6)
        layer_index = network.parameterized_layer_indices()[-1]
        cold = point_repair(network, layer_index, spec)

        session = IncrementalPointRepairSession(network, layer_index)
        for index in range(spec.num_points):
            session.append_points(
                PointRepairSpec(
                    points=spec.points[index : index + 1],
                    constraints=spec.constraints[index : index + 1],
                )
            )
        result = session.solve()
        assert cold.feasible and result.feasible
        assert result.num_key_points == spec.num_points
        assert result.num_constraint_rows == cold.num_constraint_rows
        # Point-by-point appends reproduce the one-shot batched LP exactly.
        assert result.delta.tobytes() == cold.delta.tobytes()

    def test_session_solves_are_monotone_supersets(self, rng):
        network, spec = self.toy_pool_spec(rng, 5)
        layer_index = network.parameterized_layer_indices()[-1]
        objectives = []
        with lp_solver("simplex"):
            session = IncrementalPointRepairSession(network, layer_index)
            for index in range(spec.num_points):
                session.append_points(
                    PointRepairSpec(
                        points=spec.points[index : index + 1],
                        constraints=spec.constraints[index : index + 1],
                    )
                )
                result = session.solve()
                assert result.feasible
                objectives.append(result.objective_value)
        # Each round adds constraints, so the minimal norm cannot shrink.
        assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))


class TestLPSession:
    def build_session(self, rows, rng, num_variables=5):
        session = LPSession()
        delta = session.add_variables(num_variables)
        add_norm_objective(session, delta, "linf")
        session.append_rows(
            [(rng.normal(size=(rows, num_variables)), rng.normal(size=rows) + 3.0)]
        )
        return session

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_appended_session_matches_cold_model(self, rng, backend, sparse):
        """The session vs a fresh solver's cold solve of its standard form,
        handed over as CSR or dense.

        Same status and objective (1e-9 relative), every row satisfied; the
        vertex may differ, since the session re-solves warm over the rows it
        admitted.
        """

        def assert_matches_cold(solution):
            c, a_ub, b_ub, a_eq, b_eq, bounds = session.standard_form()
            dense = (c, a_ub.toarray(), b_ub, a_eq.toarray(), b_eq, bounds)
            cold = solve_cold(dense, sparse=sparse)
            assert solution.status is cold.status is LPStatus.OPTIMAL
            assert solution.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            assert np.all(a_ub @ solution.values - b_ub <= 1e-7)

        with lp_solver(backend):
            session = self.build_session(6, rng)
            assert_matches_cold(session.solve())
            extra = rng.normal(size=(3, 5))
            rhs = rng.normal(size=3) + 4.0
            assert session.append_rows([(extra, rhs)]) == 3
            assert_matches_cold(session.solve())
        assert session.num_rows == 2 * 5 + 6 + 3

    def test_append_rows_rejects_new_variables(self, rng):
        session = self.build_session(4, rng)
        with pytest.raises(LPError):
            # Wider than the session's variables.
            session.append_rows([(np.ones((1, 7)), [1.0])])
        session.solve()
        with pytest.raises(LPError):
            session.add_variables(1)
        assert session.num_variables == 6

    def test_empty_model_session_solves(self):
        session = LPSession()
        solution = session.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values.size == 0
