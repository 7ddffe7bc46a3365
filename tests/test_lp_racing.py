"""Tests for deterministic LP solver racing.

Two layers of pinning:

* a **differential matrix** on the strengthened ACAS φ8 driver workload:
  a ``race:`` run must be byte-identical to a solo run of its preferred
  backend across backend-order permutations × workers {1,4} × warm start
  on/off — racing is a latency hedge, never a second source of truth — and
  the solo run to a one-shot ``point_repair`` of its final pool;
* **fault injection** through registered stub backends: a racer that
  crashes (or hangs, honouring the cooperative ``cancel_event``) must not
  change the returned answer or raise — the failure lands in telemetry.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core.point_repair import point_repair
from repro.datasets.acas import phi8_property
from repro.driver import DriverConfig, RepairDriver
from repro.engine import ShardedSyrennEngine
from repro.exceptions import LPError
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.lp.backends import get_backend, register_backend, unregister_backend
from repro.lp.backends.base import LPBackend
from repro.lp.model import LPModel, LPSolution
from repro.lp.norms import add_norm_objective
from repro.lp.racing import RacingBackend, parse_race_spec
from repro.lp.status import LPStatus
from repro.models.acas_models import build_acas_network
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier


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


def value_parameters_of(network) -> list[bytes]:
    return [
        network.value.layers[index].get_parameters().tobytes()
        for index in network.repairable_layer_indices()
    ]


def run_driver(acas_phi8, backend: str, *, warm_start: bool, workers: int):
    network, spec = acas_phi8

    def run(engine=None):
        driver = RepairDriver(
            network,
            spec,
            SyrennVerifier(engine=engine),
            config=DriverConfig(
                max_rounds=20,
                warm_start=warm_start,
                max_new_counterexamples=4,
                backend=backend,
            ),
        )
        return driver.run(), driver.pool.point_spec(margin=driver.repair_margin)

    if workers > 1:
        with ShardedSyrennEngine(workers=workers, cache=False) as engine:
            return run(engine)
    return run()


def one_shot_of_final_pool(acas_phi8, report, pool_spec, backend: str):
    """``point_repair(base, layer, final pool)`` for a finished driver run."""
    network, _ = acas_phi8
    layer = [r.layer_index for r in report.rounds if r.repair_feasible][-1]
    return point_repair(network, layer, pool_spec, backend=backend)


def fence_form(sparse: bool = False):
    """min ||d||_inf subject to d_i >= 0.5 — optimum 0.5, unique solve."""
    model = LPModel()
    delta = model.add_variables(4, "d")
    add_norm_objective(model, delta, "linf")
    model.add_leq_block(-np.eye(4), -np.full(4, 0.5), delta)
    return model.standard_form(sparse=sparse)


class CrashingBackend(LPBackend):
    """A racer that always raises — the fault-injection stub."""

    name = "crashing_stub"
    supports_sparse = True

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None):
        raise RuntimeError("injected solver crash")


class ErrorBackend(LPBackend):
    """A racer that fails in-band: returns ``LPStatus.ERROR`` (the native
    backend's spelling of a binding crash) instead of raising."""

    name = "error_stub"
    supports_sparse = True

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None):
        return LPSolution(LPStatus.ERROR, message="injected in-band failure")


class SlowStatefulBackend(LPBackend):
    """A slow racer that, like ``highs_native``, must never see two solves
    on one instance at once — overlap is recorded and fails the test."""

    name = "slow_stateful_stub"
    supports_sparse = True

    def __init__(self) -> None:
        self.busy = threading.Lock()
        self.overlapped = threading.Event()
        self.completed = 0

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None):
        if not self.busy.acquire(blocking=False):
            self.overlapped.set()
            raise RuntimeError("overlapping solve on a stateful backend")
        try:
            time.sleep(0.05)
            solution = get_backend("scipy").solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
            self.completed += 1
            return solution
        finally:
            self.busy.release()


class HangingBackend(LPBackend):
    """A racer that blocks until cooperatively cancelled.

    Exposes the ``cancel_event`` attribute the race looks for; a solve
    parks on the event and only ever ends by cancellation (or a 30 s
    safety timeout that fails the test loudly instead of deadlocking it).
    """

    name = "hanging_stub"
    supports_sparse = True

    def __init__(self) -> None:
        self.cancel_event = threading.Event()
        self.cancelled = threading.Event()

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None):
        if self.cancel_event.wait(timeout=30.0):
            self.cancelled.set()
            raise RuntimeError("cancelled cooperatively")
        raise RuntimeError("hanging stub was never cancelled")


@pytest.fixture
def registered_stubs():
    register_backend("crashing_stub", CrashingBackend)
    register_backend("hanging_stub", HangingBackend)
    yield
    unregister_backend("crashing_stub")
    unregister_backend("hanging_stub")


class TestRaceSpecParsing:
    def test_members_in_preference_order(self):
        assert parse_race_spec("race:highs_native,scipy") == ["highs_native", "scipy"]
        assert parse_race_spec("race: a , b , c ") == ["a", "b", "c"]

    @pytest.mark.parametrize("spec", ["race:", "race:solo", "race:a,a"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(LPError):
            parse_race_spec(spec)


class TestRacingDeterminismMatrix:
    """Race == solo preferred, byte for byte, across the whole matrix."""

    @pytest.mark.parametrize("order", [("scipy", "simplex"), ("simplex", "scipy")])
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_race_matches_solo_preferred(self, acas_phi8, order, workers, warm_start):
        spec = "race:" + ",".join(order)
        race, _ = run_driver(acas_phi8, spec, warm_start=warm_start, workers=workers)
        solo, pool_spec = run_driver(acas_phi8, order[0], warm_start=warm_start, workers=1)

        assert race.status == "certified" and solo.status == "certified"
        # Byte-identical repaired parameters and identical trajectories:
        # whichever member wins the wall clock, the *answer* is always the
        # preferred member's, so the CEGIS rounds cannot diverge.
        assert value_parameters(race) == value_parameters(solo)
        assert race.num_rounds == solo.num_rounds
        assert race.final_report.region_statuses == solo.final_report.region_statuses
        assert race.final_report.region_margins == solo.final_report.region_margins
        for solo_round, race_round in zip(solo.rounds, race.rounds):
            assert race_round.pool_size == solo_round.pool_size
            assert race_round.layer_index == solo_round.layer_index
        # And the preferred member's answer is the one-shot repair of the
        # final pool whenever its warm start cannot steer the pivots.
        one_shot = one_shot_of_final_pool(acas_phi8, solo, pool_spec, order[0])
        if not warm_start or get_backend(order[0]).warm_start_is_exact:
            assert value_parameters(solo) == value_parameters_of(one_shot.network)

    def test_single_solve_returns_preferred_bytes(self):
        form = fence_form()
        race = get_backend("race:scipy,simplex")
        solo = get_backend("scipy")
        raced, soloed = race.solve(*form), solo.solve(*form)
        assert raced.status is LPStatus.OPTIMAL
        assert raced.values.tobytes() == soloed.values.tobytes()
        assert raced.objective == soloed.objective
        # The handle is minted by the preferred member, so a session can
        # thread it straight back into the next raced round.
        assert raced.warm_start is not None and raced.warm_start.backend == "scipy"

    def test_win_loss_telemetry_accumulates(self):
        form = fence_form()
        race = get_backend("race:scipy,simplex")
        with obs.isolated():
            for _ in range(3):
                race.solve(*form)
            wins = obs.counter("repro_lp_race_wins_total", labels=("backend",))
            losses = obs.counter("repro_lp_race_losses_total", labels=("backend",))
            total_wins = sum(wins.value(backend=name) for name in ("scipy", "simplex"))
            total_losses = sum(losses.value(backend=name) for name in ("scipy", "simplex"))
        # Exactly one wall-clock winner per solve; every other finisher
        # either loses or is cancelled.
        assert total_wins == 3.0
        assert total_losses <= 3.0


class TestRacingFaultInjection:
    def test_crashing_racer_does_not_change_the_answer(self, registered_stubs):
        form = fence_form()
        race = get_backend("race:scipy,crashing_stub")
        solo = get_backend("scipy")
        with obs.isolated():
            raced = race.solve(*form)
            failures = obs.counter(
                "repro_lp_race_failures_total", labels=("backend",)
            ).value(backend="crashing_stub")
            cancelled = obs.counter(
                "repro_lp_race_cancelled_total", labels=("backend",)
            ).value(backend="crashing_stub")
        assert raced.status is LPStatus.OPTIMAL
        assert raced.values.tobytes() == solo.solve(*form).values.tobytes()
        # The stub is fully accounted for either way the clock falls: as a
        # failure when its crash lands before the preferred answer, as a
        # cancellation when the preferred answer arrives first.
        assert failures + cancelled == 1.0

    def test_crashing_preferred_falls_through_to_next_member(self, registered_stubs):
        form = fence_form()
        race = get_backend("race:crashing_stub,scipy")
        with obs.isolated():
            raced = race.solve(*form)
            failures = obs.counter(
                "repro_lp_race_failures_total", labels=("backend",)
            ).value(backend="crashing_stub")
        # Preference falls to the next member rather than raising.
        assert raced.status is LPStatus.OPTIMAL
        assert raced.values.tobytes() == get_backend("scipy").solve(*form).values.tobytes()
        assert failures == 1.0

    def test_hanging_racer_is_cancelled_cooperatively(self, registered_stubs):
        form = fence_form()
        hanging = HangingBackend()
        race = RacingBackend([get_backend("scipy"), hanging])
        with obs.isolated():
            raced = race.solve(*form)
            cancelled = obs.counter(
                "repro_lp_race_cancelled_total", labels=("backend",)
            ).value(backend="hanging_stub")
        assert raced.status is LPStatus.OPTIMAL
        assert cancelled == 1.0
        # The race must have set the stub's cancel_event on the way out;
        # give the abandoned thread a beat to observe it.
        assert hanging.cancelled.wait(timeout=5.0)

    def test_error_status_preferred_falls_through(self):
        """An ERROR *solution* is a member failure, same as a raise: the
        race must fall through to the next member, not return it."""
        form = fence_form()
        race = RacingBackend([ErrorBackend(), get_backend("scipy")])
        with obs.isolated():
            raced = race.solve(*form)
            failures = obs.counter(
                "repro_lp_race_failures_total", labels=("backend",)
            ).value(backend="error_stub")
        assert raced.status is LPStatus.OPTIMAL
        assert raced.values.tobytes() == get_backend("scipy").solve(*form).values.tobytes()
        assert failures == 1.0

    def test_all_members_error_returns_preferred_error(self):
        """When every member fails in-band, the race returns the preferred
        member's diagnostic ERROR solution instead of raising."""
        form = fence_form()
        race = RacingBackend([ErrorBackend(), ErrorBackend()])
        raced = race.solve(*form)
        assert raced.status is LPStatus.ERROR
        assert "injected in-band failure" in raced.message

    def test_all_members_failing_raises(self, registered_stubs):
        form = fence_form()
        race = RacingBackend([CrashingBackend(), CrashingBackend()])
        with pytest.raises(LPError):
            race.solve(*form)

    def test_stateful_member_solves_never_overlap_across_rounds(self):
        """A loser still running when the race returns must not overlap the
        next round's solve on the same stateful instance — per-member
        single-thread executors serialize rounds per member."""
        form = fence_form()
        slow = SlowStatefulBackend()
        race = RacingBackend([get_backend("scipy"), slow])
        solo = get_backend("scipy").solve(*form)
        rounds = 5
        for _ in range(rounds):
            raced = race.solve(*form)
            assert raced.status is LPStatus.OPTIMAL
            assert raced.values.tobytes() == solo.values.tobytes()
        # Queued slow solves may be cancelled before they ever start (that
        # is what cancellation is for); the invariant is that whatever did
        # run never overlapped.  With serialization at most one solve is in
        # flight after the last race returns — wait for it, then check.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if slow.busy.acquire(blocking=False):
                slow.busy.release()
                break
            time.sleep(0.02)
        assert not slow.overlapped.is_set()
        assert slow.completed >= 1

    def test_driver_run_survives_crashing_racer(self, acas_phi8, registered_stubs):
        """End to end: a crashing member never perturbs a repair."""
        race, _ = run_driver(
            acas_phi8, "race:scipy,crashing_stub", warm_start=True, workers=1
        )
        solo, _ = run_driver(acas_phi8, "scipy", warm_start=True, workers=1)
        assert race.status == "certified"
        assert value_parameters(race) == value_parameters(solo)
