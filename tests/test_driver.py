"""Tests for the CEGIS repair driver (repro.driver)."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.driver.driver as driver_module
import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.driver import CounterexamplePool, DriverConfig, RepairDriver
from repro.exceptions import RepairError
from repro.lp.backends import _BACKENDS
from repro.lp.model import LPSolution
from repro.lp.status import LPStatus
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.obs import Trace, use_trace
from repro.polytope.hpolytope import HPolytope
from repro.verify import (
    Counterexample,
    GridVerifier,
    RandomVerifier,
    RegionStatus,
    SyrennVerifier,
    VerificationSpec,
)


def make_counterexample(x: float = 0.0, margin: float = 1.0, region: int = 0) -> Counterexample:
    return Counterexample(
        point=np.array([x]),
        constraint=HPolytope([[1.0]], [0.5]),
        margin=margin,
        region_index=region,
    )


@pytest.fixture
def plane_network(rng) -> Network:
    return Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 6, rng),
            ReLULayer(6),
            FullyConnectedLayer.from_shape(6, 3, rng),
        ]
    )


@pytest.fixture
def plane_scenario(plane_network, rng) -> tuple[Network, VerificationSpec, int]:
    """A seeded ACAS-style scenario: keep the majority class on two regions."""
    preds = plane_network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_plane(
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],
        HPolytope.argmax_region(3, winner, 1e-4),
    )
    spec.add_box([-0.5, -1.0], [0.5, 1.0], HPolytope.argmax_region(3, winner, 1e-4))
    return plane_network, spec, winner


class TestCounterexamplePool:
    def test_deduplicates(self):
        pool = CounterexamplePool()
        assert pool.add(make_counterexample(0.0))
        assert not pool.add(make_counterexample(0.0))
        assert pool.add(make_counterexample(1.0))
        assert len(pool) == 2

    def test_dedup_respects_rounding(self):
        pool = CounterexamplePool(decimals=6)
        assert pool.add(make_counterexample(0.0))
        assert not pool.add(make_counterexample(1e-9))   # rounds to the same key
        assert pool.add(make_counterexample(1e-3))

    def test_dedup_distinguishes_constraints(self):
        pool = CounterexamplePool()
        point = np.array([0.0])
        assert pool.add(Counterexample(point, HPolytope([[1.0]], [0.5]), 1.0, 0))
        assert pool.add(Counterexample(point, HPolytope([[1.0]], [0.25]), 1.0, 0))

    def test_extend_counts_new(self):
        pool = CounterexamplePool()
        new = pool.extend([make_counterexample(0.0), make_counterexample(0.0), make_counterexample(2.0)])
        assert new == 2

    def test_point_spec_tightens_margin(self):
        pool = CounterexamplePool()
        pool.add(make_counterexample(0.0))
        spec = pool.point_spec(margin=0.125)
        assert spec.num_points == 1
        np.testing.assert_allclose(spec.constraints[0].b, np.array([0.375]))

    def test_point_spec_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            CounterexamplePool().point_spec()

    def test_worst_margin(self):
        pool = CounterexamplePool()
        assert pool.worst_margin == float("-inf")
        pool.extend([make_counterexample(0.0, margin=0.25), make_counterexample(1.0, margin=2.0)])
        assert pool.worst_margin == 2.0

    def test_checkpoint_roundtrip(self, tmp_path):
        pool = CounterexamplePool(decimals=7)
        pool.add(make_counterexample(0.25, margin=0.5, region=3))
        pool.add(
            Counterexample(
                point=np.array([1.0]),
                constraint=HPolytope([[1.0], [-1.0]], [0.5, 0.5]),
                margin=0.75,
                region_index=1,
                activation_point=np.array([0.9]),
            )
        )
        path = tmp_path / "pool.npz"
        pool.save(path)
        restored = CounterexamplePool.load(path)
        assert len(restored) == 2
        assert restored.decimals == 7
        original, loaded = pool.counterexamples[1], restored.counterexamples[1]
        np.testing.assert_array_equal(original.point, loaded.point)
        np.testing.assert_array_equal(original.activation_point, loaded.activation_point)
        np.testing.assert_array_equal(original.constraint.a, loaded.constraint.a)
        assert loaded.margin == 0.75 and loaded.region_index == 1
        # Re-adding a restored counterexample is still a duplicate.
        assert not restored.add(pool.counterexamples[0])

    def test_unsatisfied_differential(self, toy_network):
        pool = CounterexamplePool()
        pool.add(make_counterexample(-1.0))  # N₁(-1) = 1 > 0.5: violated
        pool.add(make_counterexample(0.5))   # N₁(0.5) = -0.5: satisfied
        assert pool.unsatisfied(toy_network) == [0]


class TestRepairDriver:
    def test_certifies_seeded_scenario(self, plane_scenario):
        network, spec, _ = plane_scenario
        driver = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        )
        report = driver.run()
        assert report.status == "certified"
        assert report.certified
        assert report.final_report.num_violated == 0
        assert report.final_report.certified
        assert report.pool_size > 0
        # Differential: the final network satisfies every pooled counterexample.
        assert report.unsatisfied_pool_indices == []
        assert driver.pool.unsatisfied(report.network) == []

    def test_sampling_verifiers_agree_on_certified_result(self, plane_scenario):
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        assert report.certified
        for verifier in (GridVerifier(resolution=24), RandomVerifier(512, seed=11)):
            cross_check = verifier.verify(report.network, spec)
            assert cross_check.num_violated == 0

    def test_clean_network_terminates_immediately(self, plane_scenario):
        network, spec, _ = plane_scenario
        certified = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        again = RepairDriver(
            certified.network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        assert again.status == "certified"
        assert again.num_rounds == 1
        assert again.counterexamples_found == 0

    def test_sampling_driver_reaches_clean_not_certified(self, plane_scenario):
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            GridVerifier(resolution=12),
            config=DriverConfig(max_rounds=8),
        ).run()
        assert report.status == "clean"
        assert not report.certified

    def test_budget_exhaustion(self, plane_scenario):
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8, budget_seconds=0.0),
        ).run()
        assert report.status == "budget_exhausted"
        assert report.num_rounds == 0

    def test_single_round_still_reports_final_network(self, plane_scenario):
        """Running out of rounds right after a repair re-verifies the result."""
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=1),
        ).run()
        assert report.num_rounds == 1
        # The one repair round fixed everything, and the report describes the
        # returned network — not the pre-repair verification.
        assert report.status == "certified"
        assert report.final_report.certified
        assert SyrennVerifier().verify(report.network, spec).certified

    def test_stale_final_verify_is_spanned(self, plane_scenario):
        """The re-verification after the last round shows in the span tree."""
        network, spec, _ = plane_scenario
        driver = RepairDriver(
            network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=1)
        )
        with obs.isolated(), use_trace(Trace("test.root")) as active:
            report = driver.run()
        trace = active.export()["root"]
        assert report.num_rounds == 1 and report.rounds[0].repair_feasible
        (run_span,) = [c for c in trace["children"] if c["name"] == "driver.run"]
        verifies = [c for c in run_span["children"] if c["name"] == "driver.verify"]
        assert [span["attributes"]["round"] for span in verifies] == [0, "final"]

    def test_max_rounds_reached_when_violations_persist(self, plane_scenario):
        network, spec, _ = plane_scenario

        class NeverSatisfied(SyrennVerifier):
            """Reports one fresh (fake) violation per call, forever."""

            def __init__(self):
                super().__init__()
                self.calls = 0

            def verify(self, net, spec):
                report = super().verify(net, spec)
                self.calls += 1
                fake = Counterexample(
                    point=np.array([0.17, 0.001 * self.calls]),
                    constraint=spec.regions[0].constraint,
                    margin=1.0,
                    region_index=0,
                )
                report.counterexamples.append(fake)
                report.region_statuses[0] = RegionStatus.VIOLATED
                return report

        report = RepairDriver(
            network,
            spec,
            NeverSatisfied(),
            config=DriverConfig(max_rounds=2),
        ).run()
        assert report.status == "max_rounds_reached"
        assert report.num_rounds == 2
        assert report.remaining_violations >= 1

    def test_infeasible_with_tiny_delta_bound(self, plane_scenario):
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=4, delta_bound=1e-12),
        ).run()
        assert report.status == "infeasible"
        # Escalation tried every layer in the schedule before giving up.
        assert report.rounds[-1].repair_feasible is False

    def test_solver_error_is_not_reported_infeasible(self, plane_scenario, monkeypatch):
        """An LP that failed without a proof is ``lp_error``, never the paper's ⊥."""
        network, spec, _ = plane_scenario
        solves = []

        class ErrorSolver:
            name = "error_stub"

            def solve(self, *form):
                solves.append(form[1].shape)
                return LPSolution(LPStatus.ERROR, message="iteration limit (stub)")

        monkeypatch.setitem(_BACKENDS, "scipy", ErrorSolver)
        report = RepairDriver(
            network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=4)
        ).run()
        assert report.status == "lp_error"
        assert not report.certified
        assert report.rounds[-1].repair_feasible is False
        # Every layer of the schedule was attempted before giving up.
        assert len(solves) == len(report.network.repairable_layer_indices())

    def test_solver_exception_propagates_out_of_run(self, plane_scenario, monkeypatch):
        network, spec, _ = plane_scenario

        class CrashingSolver:
            name = "crashing_stub"

            def solve(self, *form):
                raise RuntimeError("solver crashed (stub)")

        monkeypatch.setitem(_BACKENDS, "scipy", CrashingSolver)
        driver = RepairDriver(network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=4))
        with pytest.raises(RuntimeError, match="solver crashed"):
            driver.run()

    def test_layer_escalation_on_infeasible(self, plane_scenario, monkeypatch):
        network, spec, _ = plane_scenario
        real_session = driver_module.IncrementalPointRepairSession
        attempted_layers = []

        def failing_on_last(network, layer_index, **kwargs):
            attempted_layers.append(layer_index)
            if layer_index == 4:  # pretend the output layer cannot repair this
                kwargs["delta_bound"] = 1e-15
            return real_session(network, layer_index, **kwargs)

        monkeypatch.setattr(driver_module, "IncrementalPointRepairSession", failing_on_last)
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        assert attempted_layers[:2] == [4, 2]
        assert report.status == "certified"
        assert any(record.layer_index == 2 for record in report.rounds)

    def test_drawdown_tracking(self, plane_scenario, rng):
        network, spec, _ = plane_scenario
        holdout_inputs = rng.uniform(-1.0, 1.0, size=(100, 2))
        holdout_labels = network.predict(holdout_inputs)
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
            holdout=(holdout_inputs, holdout_labels),
        ).run()
        repaired_rounds = [r for r in report.rounds if r.repair_feasible]
        assert repaired_rounds
        assert all(np.isfinite(r.drawdown) for r in repaired_rounds)

    def test_checkpoint_and_resume(self, plane_scenario, tmp_path):
        network, spec, _ = plane_scenario
        path = tmp_path / "pool-checkpoint.npz"
        # The first run checkpoints its pool but cannot repair anything.
        first = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=1, delta_bound=1e-12),
            checkpoint_path=path,
        ).run()
        assert first.status == "infeasible"
        assert path.exists()
        resumed_driver = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
            checkpoint_path=path,
        )
        assert len(resumed_driver.pool) == first.pool_size
        report = resumed_driver.run()
        assert report.status == "certified"
        # Even though round 0 finds nothing the loaded pool did not already
        # know, the resumed run must still *attempt* a repair — starting at
        # the first layer of the schedule, not escalated past it.
        assert report.rounds[0].repair_attempted
        assert report.rounds[0].layer_index == resumed_driver.layer_schedule[0]
        assert report.pool_size >= first.pool_size

    def test_repair_minimal_from_base_not_cumulative(self, plane_scenario):
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        # The applied delta is measured against the original network.
        base = DecoupledNetwork.from_network(network)
        for layer_index in base.repairable_layer_indices():
            base_flat = base.value.layers[layer_index].get_parameters()
            final_flat = report.network.value.layers[layer_index].get_parameters()
            delta = np.max(np.abs(final_flat - base_flat))
            if delta > 0:
                last_delta = max(
                    record.delta_linf for record in report.rounds if record.repair_feasible
                )
                assert delta == pytest.approx(last_delta)

    def test_final_pool_check_is_timed(self, plane_scenario, monkeypatch):
        # The closing pool check runs against the returned network; its time
        # belongs to the run's timing like every other phase.
        network, spec, _ = plane_scenario
        real_unsatisfied = CounterexamplePool.unsatisfied
        calls = []

        def slow_unsatisfied(pool, *args, **kwargs):
            calls.append(len(pool))
            time.sleep(0.2)
            return real_unsatisfied(pool, *args, **kwargs)

        monkeypatch.setattr(CounterexamplePool, "unsatisfied", slow_unsatisfied)
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        assert report.status == "certified"
        assert calls == [report.pool_size]
        assert report.timing.other_seconds >= 0.2
        assert report.timing.total_seconds >= report.timing.verify_seconds + 0.2

    def test_validation(self, plane_scenario):
        network, spec, _ = plane_scenario
        with pytest.raises(RepairError):
            RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(max_rounds=0),
            )
        with pytest.raises(RepairError):
            RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(layer_schedule=[]),
            )

    def test_report_as_dict_shape(self, plane_scenario):
        network, spec, _ = plane_scenario
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        summary = report.as_dict()
        assert summary["status"] == "certified"
        assert summary["num_rounds"] == len(summary["rounds"])
        assert summary["final_report"]["certified"] is True
        assert {"verify", "repair_lp", "repair_jacobian", "other", "total"} <= set(
            summary["timing"]
        )
        assert summary["timing"]["total"] >= summary["timing"]["verify"]
