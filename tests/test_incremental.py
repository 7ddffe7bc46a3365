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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import IncrementalPointRepairSession, point_repair
from repro.core.specs import PointRepairSpec
from repro.datasets.acas import phi8_property
from repro.driver import DriverConfig, RepairDriver
from repro.exceptions import LPError
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.lp.backends import get_backend
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.models.acas_models import build_acas_network
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.syrenn.plane import transform_plane
from repro.syrenn.regions import geometry_digest
from repro.utils.rng import ensure_rng
from repro.utils.serialization import network_fingerprint
from repro.verify import SyrennVerifier
from tests.conftest import lp_solver, make_random_relu_network
from tests.oracle import (
    dense_standard_form,
    max_row_violation,
    oracle_point_repair,
    oracle_verify,
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
        repaired = ddnn.copy()
        repaired.apply_parameter_delta(layer_index, delta)

        fast = SyrennVerifier(value_only=True)
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
        forwards = {"inside": 0, "outside": 0}
        state = {"inside": False, "calls": 0, "splits": 0}
        for layer in network.layers:
            def counting(values, _forward=layer.forward):
                forwards["inside" if state["inside"] else "outside"] += 1
                return _forward(values)

            monkeypatch.setattr(layer, "forward", counting)
        transform_planes, split_one = exact_module.transform_planes, plane_module._split_one

        def counted_transform(*args, **kwargs):
            state["calls"] += 1
            state["inside"] = True
            try:
                return transform_planes(*args, **kwargs)
            finally:
                state["inside"] = False

        def counted_split(*args, **kwargs):
            state["splits"] += 1
            return split_one(*args, **kwargs)

        monkeypatch.setattr(exact_module, "transform_planes", counted_transform)
        monkeypatch.setattr(plane_module, "_split_one", counted_split)
        report = SyrennVerifier().verify(network, spec)
        assert spec.num_regions > 1
        assert report.linear_regions_checked == spec.num_regions  # already linear
        assert state["calls"] == 1
        assert forwards["inside"] == len(network.layers)
        assert state["splits"] == 0
        # ... and one stacked evaluation of every linear region's vertices.
        assert forwards["outside"] == len(network.layers)


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

    def test_driver_restores_callers_value_only_flag(self, acas_phi8):
        network, spec = acas_phi8
        verifier = SyrennVerifier()
        assert verifier.value_only is False
        RepairDriver(network, spec, verifier, config=DriverConfig(max_rounds=20)).run()
        assert verifier.value_only is False


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
    def build_model(self, rows, rng, num_variables=5):
        model = LPModel()
        delta = model.add_variables(num_variables, "d")
        add_norm_objective(model, delta, "linf")
        model.add_leq_block(
            rng.normal(size=(rows, num_variables)), rng.normal(size=rows) + 3.0, delta
        )
        return model, delta

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_appended_session_matches_cold_model(self, rng, backend, sparse):
        """The session vs a cold solve of its model, from CSR or dense form.

        Same status and objective (1e-9 relative), every row satisfied; the
        vertex may differ, since the session re-solves warm over the rows it
        admitted.
        """

        def cold_solve(model):
            if sparse:
                return model.solve()
            return get_backend().solve(*dense_standard_form(model))

        def assert_matches_cold(solution, cold, model):
            assert solution.status is cold.status is LPStatus.OPTIMAL
            assert solution.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            _, a_ub, b_ub, *_ = model.standard_form()
            assert np.all(a_ub @ solution.values - b_ub <= 1e-7)

        with lp_solver(backend):
            model, delta = self.build_model(6, rng)
            session = model.incremental_session()
            first = session.solve()
            extra = rng.normal(size=(3, 5))
            rhs = rng.normal(size=3) + 4.0
            model.add_leq_block(extra, rhs, delta)
            assert session.append_rows() == 3
            second = session.solve()

            cold_rng = ensure_rng(12345)
            cold_model, cold_delta = self.build_model(6, cold_rng)
            cold_first = cold_solve(cold_model)
            assert_matches_cold(first, cold_first, cold_model)
            cold_model.add_leq_block(extra, rhs, cold_delta)
            cold_second = cold_solve(cold_model)
            assert_matches_cold(second, cold_second, cold_model)
        assert session.num_rows == cold_model.num_constraints

    def test_append_rows_rejects_new_variables(self, rng):
        model, _ = self.build_model(4, rng)
        session = model.incremental_session()
        model.add_variable("late")
        with pytest.raises(LPError):
            session.append_rows()
        with pytest.raises(LPError):
            session.standard_form()

    def test_empty_model_session_solves(self):
        session = LPModel().incremental_session()
        solution = session.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values.size == 0
