"""Tests for the CEGIS repair driver (repro.driver)."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    CounterexampleBatch,
    GridVerifier,
    RandomVerifier,
    RegionCounterexample,
    RegionStatus,
    SyrennVerifier,
    VerificationSpec,
)
from repro.verify.base import constraint_bytes
from tests.conftest import make_random_relu_network
from tests.oracle import oracle_pool_admits, oracle_pool_point_spec, oracle_unsatisfied
from tests.standard_form import standard_form_backend


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


def mixed_intake(rng, dimension: int, count: int, earlier=(), ragged: bool = False) -> list:
    """A pool intake batch covering every key-material case.

    Plain points over two shared constraints (and bytes-equal copies of
    them), ``-0.0`` entries and ones that round to it, float32 points (one
    coerced at construction, one assigned afterwards), pinned activation
    points, region counterexamples, duplicates within the batch and of
    ``earlier`` entries (the same objects and equal copies), and with
    ``ragged`` one point of another dimension.
    """
    constraints = [
        HPolytope(rng.normal(size=(2, 3)), rng.normal(size=2)),
        HPolytope(rng.normal(size=(1, 3)), rng.normal(size=1)),
    ]
    batch: list[Counterexample] = []
    for _ in range(count):
        constraint = constraints[int(rng.integers(2))]
        if rng.random() < 0.2:
            constraint = HPolytope(constraint.a.copy(), constraint.b.copy())
        point = np.round(rng.uniform(-1.0, 1.0, dimension), 2)
        kind = int(rng.integers(7))
        if kind == 0:
            point[: dimension // 2] = -0.0
            point[dimension // 2] = -1e-12
        activation = rng.uniform(-1.0, 1.0, dimension) if kind == 1 else None
        if kind == 2:
            point = point.astype(np.float32)
        entry = (
            RegionCounterexample(
                point=point,
                constraint=constraint,
                margin=float(rng.uniform(0.1, 2.0)),
                region_index=int(rng.integers(5)),
                activation_point=rng.uniform(-1.0, 1.0, dimension),
                vertices=rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), dimension)),
            )
            if kind == 3
            else Counterexample(
                point=point,
                constraint=constraint,
                margin=float(rng.uniform(0.1, 2.0)),
                region_index=int(rng.integers(5)),
                activation_point=activation,
            )
        )
        if kind == 4:
            entry.point = entry.point.astype(np.float32)
        batch.append(entry)
    seen = [*batch, *earlier]
    for _ in range(count // 2):
        repeat = seen[int(rng.integers(len(seen)))]
        if type(repeat) is Counterexample and rng.random() < 0.5:
            # An equal copy: zeros flipped to -0.0, another margin.
            repeat = Counterexample(
                point=np.where(repeat.point == 0.0, -0.0, repeat.point),
                constraint=repeat.constraint,
                margin=repeat.margin + 1.0,
                region_index=repeat.region_index,
                activation_point=repeat.activation_point,
            )
        batch.insert(int(rng.integers(len(batch) + 1)), repeat)
    if ragged:
        batch.append(make_counterexample(0.5))
    return batch


def batched_runs(intake: list) -> list:
    """``intake`` cut into consecutive runs the pool can take in one ``extend``.

    Runs of plain counterexamples sharing one point dimension become one
    :class:`CounterexampleBatch` each (alternately with and without explicit
    activation points, where every activation point is given); region
    counterexamples and ragged points stay lists.
    """
    runs: list = []
    for entry in intake:
        plain = type(entry) is Counterexample
        last = runs[-1] if runs else None
        if (
            plain
            and last is not None
            and last[0]
            and last[1][0].point.shape == entry.point.shape
        ):
            last[1].append(entry)
        else:
            runs.append((plain, [entry]))
    return [
        batch_of(entries, pin=index % 2 == 1) if plain else entries
        for index, (plain, entries) in enumerate(runs)
    ]


def batch_of(counterexamples: list, pin: bool = False) -> CounterexampleBatch:
    """Plain counterexamples as one batch, rows in order.

    With ``pin`` every row carries an explicit activation point, the point
    itself where the counterexample has none.
    """
    constraints: list = []
    for entry in counterexamples:
        if not any(entry.constraint is known for known in constraints):
            constraints.append(entry.constraint)
    groups = [
        next(i for i, known in enumerate(constraints) if known is entry.constraint)
        for entry in counterexamples
    ]
    pinned = pin or any(entry.activation_point is not None for entry in counterexamples)
    return CounterexampleBatch(
        points=np.array([entry.point for entry in counterexamples]),
        constraints=constraints,
        groups=groups,
        margins=[entry.margin for entry in counterexamples],
        region_indices=[entry.region_index for entry in counterexamples],
        activation_points=(
            np.array([entry.resolved_activation_point() for entry in counterexamples])
            if pinned
            else None
        ),
    )


def assert_same_entry(ours: Counterexample, theirs: Counterexample) -> None:
    def raw(array) -> bytes:
        return np.asarray(array, dtype=np.float64).tobytes()

    assert type(ours) is type(theirs)
    assert raw(ours.point) == raw(theirs.point)
    assert raw(ours.resolved_activation_point()) == raw(theirs.resolved_activation_point())
    assert constraint_bytes(ours.constraint) == constraint_bytes(theirs.constraint)
    assert ours.margin == theirs.margin
    assert ours.region_index == theirs.region_index
    assert raw(ours.key_points()) == raw(theirs.key_points())


def assert_pools_equal(batched: CounterexamplePool, single: CounterexamplePool) -> None:
    assert batched._keys == single._keys
    assert len(batched) == len(single)
    assert batched._resident_start == single._resident_start
    assert batched.num_key_points == single.num_key_points
    assert batched.worst_margin == single.worst_margin
    assert batched.resident_bytes == single.resident_bytes
    assert batched.spilled_entries == single.spilled_entries
    assert [segment[:2] for segment in batched._segments] == [
        segment[:2] for segment in single._segments
    ]
    for ours, theirs in zip(batched.iter_entries(), single.iter_entries()):
        assert_same_entry(ours, theirs)


class TestBatchedPoolIntake:
    """``extend`` admits exactly what per-entry ``add`` calls would."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        budget=st.sampled_from([None, 200, 900]),
        decimals=st.sampled_from([3, 9]),
        ragged=st.booleans(),
    )
    def test_extend_equals_per_entry_add(self, tmp_path_factory, seed, budget, decimals, ragged):
        rng = np.random.default_rng(seed)
        first = mixed_intake(rng, 4, 8)
        second = mixed_intake(rng, 4, 8, earlier=first, ragged=ragged)
        directory = tmp_path_factory.mktemp("spill")
        batched, rows, listed, single = (
            CounterexamplePool(decimals, budget, directory / name) for name in "abcd"
        )
        for intake in (first, second):
            new = sum(single.add(entry) for entry in intake)
            assert listed.extend(intake) == new
            assert_pools_equal(listed, single)
            # Entries pooled from a list are the very objects added.
            for index in range(single._resident_start, len(single)):
                assert listed.entry(index) is single.entry(index)
            # A batch's rows hold float64 points, so its pool is compared
            # with per-entry adds of those rows; it admits what the list did.
            runs = batched_runs(intake)
            assert sum(batched.extend(run) for run in runs) == new
            assert new == sum(rows.add(entry) for run in runs for entry in run)
            assert_pools_equal(batched, rows)
            assert batched._keys == single._keys
        if budget is not None:
            assert batched.spilled_entries > 0

    def test_keys_match_the_per_entry_key(self):
        rng = np.random.default_rng(3)
        pool = CounterexamplePool()
        batch = mixed_intake(rng, 5, 12)
        plain = [entry for entry in batch if type(entry) is Counterexample]
        for pin in (False, True):
            rows = batch_of(plain, pin=pin)
            assert pool._batch_keys(rows) == [pool._key(entry) for entry in plain]
            assert pool._batch_keys(rows) == [pool._key(entry) for entry in rows]

    def test_signed_zero_and_float32_are_duplicates(self):
        constraint = HPolytope([[1.0]], [0.5])
        point = np.array([0.0, 0.25, -1e-12])
        twins = [
            Counterexample(point, constraint, 1.0, 0),
            Counterexample(np.array([-0.0, 0.25, 0.0]), constraint, 1.0, 0),
            Counterexample(point.astype(np.float32), constraint, 1.0, 0),
            Counterexample(point, constraint, 1.0, 0, activation_point=[-0.0, 0.25, 0.0]),
        ]
        twins[2].point = twins[2].point.astype(np.float32)
        assert CounterexamplePool().extend(twins) == 1
        assert CounterexamplePool().extend(batch_of(twins)) == 1
        rows = batch_of(twins[:3])
        float32 = CounterexampleBatch(
            rows.points.astype(np.float32), rows.constraints, rows.groups, rows.margins,
            rows.region_indices,
        )
        pool = CounterexamplePool()
        assert pool.extend(float32) == 1
        assert pool.extend(rows) == 0
        assert not pool.add(twins[3])


def retained_nbytes(pool: CounterexamplePool) -> int:
    """Bytes of the arrays the pool's resident batches keep alive."""
    owners = {}
    for run in pool._runs:
        assert isinstance(run, CounterexampleBatch)
        for array in (run.points, run.activation_points):
            if array is not None:
                owner = array if array.base is None else array.base
                owners[id(owner)] = owner.nbytes
    return sum(owners.values())


class TestBatchResidency:
    """A pooled batch keeps alive only the rows the pool counts."""

    @pytest.mark.parametrize("pin", [False, True])
    def test_spilled_and_admitted_rows_free_their_batch(self, tmp_path, pin):
        rng = np.random.default_rng(11)
        constraint = HPolytope([[1.0, -1.0, 0.0, 0.5]], [0.25])

        def batch(points) -> CounterexampleBatch:
            count = points.shape[0]
            return CounterexampleBatch(
                points, [constraint], np.zeros(count, np.intp), np.ones(count),
                np.arange(count), activation_points=-points if pin else None,
            )

        # Entries of 2 × 32 + 40 bytes: about 38 fit the budget, so the
        # spill cuts the first batch.
        pool = CounterexamplePool(max_resident_bytes=4000, spill_dir=tmp_path)
        first = rng.uniform(-1.0, 1.0, (300, 4))
        assert pool.extend(batch(first)) == 300
        assert pool.spilled_entries > 0 and len(pool._runs) == 1
        assert retained_nbytes(pool) <= pool.resident_bytes
        # A second round whose only new rows are a contiguous run of it.
        second = np.vstack([first, rng.uniform(-1.0, 1.0, (10, 4))])
        assert pool.extend(batch(second)) == 10
        assert retained_nbytes(pool) <= pool.resident_bytes
        # Rows pooled from a spec's point stack stay views of it.
        spec_points = rng.uniform(-1.0, 1.0, (30, 4))
        spec = VerificationSpec.from_points(spec_points, [constraint] * 30, [""] * 30)
        stack = spec.point_stack()
        stacked = stack.batch(np.arange(5, 30), np.ones(30))
        assert stacked.points.base is stack.points
        assert pool.extend(stacked) == 25
        assert pool._runs[-1].points.base is stack.points
        entries = list(pool.iter_entries())
        assert [entry.point.tobytes() for entry in entries] == [
            row.tobytes() for row in (*first, *second[300:], *spec_points[5:])
        ]


class TestBatchedDedupProperty:
    """A pool fed batches admits the per-entry oracle's entries, in order."""

    @staticmethod
    def rounds(rng, count: int, dimension: int = 3) -> list[CounterexampleBatch]:
        """Batches of plain points over every key-material case.

        ``-0.0`` and values that round to it, float32 rows, activation
        points equal to the point (some only after rounding, some with
        ``-0.0`` flipped), distinct activation points, and duplicates within
        a batch and of earlier batches (same rows, and equal rows under
        other margins, region indices and constraint objects).
        """
        constraints = [
            HPolytope(rng.normal(size=(2, 3)), rng.normal(size=2)),
            HPolytope(rng.normal(size=(1, 3)), rng.normal(size=1)),
        ]
        seen: list[tuple] = []
        batches = []
        for _ in range(count):
            rows: list[tuple] = []
            for _ in range(int(rng.integers(1, 9))):
                if seen and rng.random() < 0.3:
                    point, activation, group = seen[int(rng.integers(len(seen)))]
                    point = np.where(point == 0.0, -0.0, point)
                else:
                    point = np.round(rng.uniform(-1.0, 1.0, dimension), 1)
                    kind = int(rng.integers(5))
                    if kind == 0:
                        point[0], point[-1] = -0.0, -1e-12
                    activation = {
                        0: point,
                        1: point + 1e-12,
                        2: np.where(point == 0.0, -0.0, point),
                        3: np.round(rng.uniform(-1.0, 1.0, dimension), 1),
                        4: point,
                    }[kind]
                    group = int(rng.integers(2))
                rows.append((point, activation, group))
                seen.append((point, activation, group))
            pinned = rng.random() < 0.6
            float32 = rng.random() < 0.3
            points = np.array([row[0] for row in rows])
            batches.append(
                CounterexampleBatch(
                    points=points.astype(np.float32) if float32 else points,
                    constraints=[
                        constraint
                        if rng.random() < 0.7
                        else HPolytope(constraint.a.copy(), constraint.b.copy())
                        for constraint in constraints
                    ],
                    groups=[row[2] for row in rows],
                    margins=rng.uniform(0.1, 2.0, len(rows)),
                    region_indices=rng.integers(0, 50, len(rows)),
                    activation_points=(
                        np.array([row[1] for row in rows]) if pinned else None
                    ),
                )
            )
        return batches

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        budget=st.sampled_from([None, 150, 400]),
        decimals=st.sampled_from([1, 9]),
    )
    def test_batches_admit_the_oracle_entries(self, tmp_path_factory, seed, budget, decimals):
        rng = np.random.default_rng(seed)
        rounds = self.rounds(rng, 4)
        pool = CounterexamplePool(decimals, budget, tmp_path_factory.mktemp("spill"))
        for index, batch in enumerate(rounds):
            expected_new = len(oracle_pool_admits(rounds[: index + 1], decimals)) - len(pool)
            assert pool.extend(batch) == expected_new
        expected = oracle_pool_admits(rounds, decimals)
        assert len(pool) == len(expected)
        for ours, theirs in zip(pool.iter_entries(), expected):
            assert_same_entry(ours, theirs)
        if budget is not None and len(pool) > 1 and sum(pool._entry_bytes) > budget:
            assert pool.spilled_entries > 0
        # A reloaded checkpoint (explicit activation points) still dedups.
        path = tmp_path_factory.mktemp("checkpoint") / "pool.npz"
        pool.save(path)
        restored = CounterexamplePool.load(path)
        assert len(restored) == len(pool)
        for batch in rounds:
            assert restored.extend(batch) == 0


class TestPoolOracles:
    """Repair spec and differential check against their per-entry oracles."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        chunk_points=st.sampled_from([1, 2, 3, 1024]),
        decoupled=st.booleans(),
        budget=st.sampled_from([None, 400]),
        batched=st.booleans(),
    )
    def test_unsatisfied_and_point_spec_match(
        self, tmp_path_factory, seed, chunk_points, decoupled, budget, batched
    ):
        rng = np.random.default_rng(seed)
        network = make_random_relu_network(rng, (4, 6, 3))
        if decoupled:
            network = DecoupledNetwork.from_network(network)
            layer = network.repairable_layer_indices()[-1]
            network = network.with_parameter_delta(
                layer, rng.normal(size=network.value.layers[layer].num_parameters)
            )
        pool = CounterexamplePool(
            max_resident_bytes=budget, spill_dir=tmp_path_factory.mktemp("spill")
        )
        intake = mixed_intake(rng, 4, 12)
        for run in batched_runs(intake) if batched else [intake]:
            pool.extend(run)
        assert pool.unsatisfied(network, chunk_points=chunk_points) == oracle_unsatisfied(
            pool, network
        )
        for margin, start in [(0.0, 0), (0.125, len(pool) // 2)]:
            ours = pool.point_spec(margin=margin, start=start)
            theirs = oracle_pool_point_spec(pool, margin=margin, start=start)
            assert ours.points.tobytes() == theirs.points.tobytes()
            assert ours.activation_points.tobytes() == theirs.activation_points.tobytes()
            assert len(ours.constraints) == len(theirs.constraints)
            for left, right in zip(ours.constraints, theirs.constraints):
                assert left.a.tobytes() == right.a.tobytes()
                assert left.b.tobytes() == right.b.tobytes()

    def test_one_batch_pool_hands_over_the_verifier_arrays(self, rng):
        network = make_random_relu_network(rng, (4, 6, 3))
        points = rng.uniform(-1.0, 1.0, size=(7, 4))
        labels = (np.argmax(network.compute(points), axis=1) + 1) % 3
        spec = VerificationSpec.from_points(
            points, [HPolytope.argmax_region(3, int(label)) for label in labels], [""] * 7
        )
        report = GridVerifier(certify_exhaustive=True).verify(network, spec)
        batch = report.counterexamples
        assert isinstance(batch, CounterexampleBatch) and len(batch) == 7
        assert batch.points is spec.point_stack().points
        pool = CounterexamplePool()
        assert pool.extend(batch) == 7
        repair_spec = pool.point_spec()
        assert repair_spec.points is batch.points
        assert repair_spec.activation_points is batch.points
        checked: list[np.ndarray] = []

        class Recording:
            def compute(self, values):
                checked.append(values)
                return network.compute(values)

        assert pool.unsatisfied(Recording(), chunk_points=4) == list(range(7))
        assert [rows.base is batch.points for rows in checked] == [True, True]


def checkpoint_entries() -> list[Counterexample]:
    """The entries ``tests/data/pool_checkpoint.npz`` holds, in order.

    The archive was written by ``CounterexamplePool(decimals=7).save`` of an
    earlier release of the pool (per-entry keys), from these entries.
    """
    shared = HPolytope([[1.0, -1.0, 0.5], [0.0, 2.0, -1.0]], [0.25, 1.5])
    other = HPolytope([[-1.0, 0.0, 1.0]], [0.125])
    return [
        Counterexample(np.array([0.5, -0.25, 1.0]), shared, 0.75, 0),
        Counterexample(np.array([-0.0, 0.125, -1e-12]), shared, 0.5, 1),
        Counterexample(
            np.array([0.25, 0.25, -0.5]), other, 1.25, 2,
            activation_point=np.array([0.3, 0.2, -0.5]),
        ),
        Counterexample(
            np.array([1.0, 0.0, -1.0]), other, 0.25, 3,
            activation_point=np.array([1.0, -0.0, -1.0]),
        ),
        Counterexample(np.array([0.1, 0.2, 0.3], dtype=np.float32), shared, 2.0, 4),
        RegionCounterexample(
            np.array([0.0, 1.0, 0.0]), other, 0.625, 5,
            activation_point=np.array([0.1, 0.8, 0.05]),
            vertices=np.array([[0.0, 1.0, 0.0], [0.2, 0.6, 0.1], [0.1, 0.9, -0.1]]),
        ),
        Counterexample(np.array([-0.75, 0.5, 0.25]), shared, 0.375, 6),
    ]


class TestCheckpointCompatibility:
    """A checkpoint an earlier pool wrote loads, dedups and re-saves unchanged."""

    PATH = Path(__file__).parent / "data" / "pool_checkpoint.npz"

    def test_entries_load_byte_equal(self):
        stored = dict(np.load(self.PATH))
        restored = CounterexamplePool.load(self.PATH)
        assert restored.decimals == 7 and len(restored) == 7
        for index, (loaded, original) in enumerate(
            zip(restored.iter_entries(), checkpoint_entries())
        ):
            assert type(loaded) is type(original)
            assert loaded.point.tobytes() == stored[f"point_{index}"].tobytes()
            assert loaded.activation_point.tobytes() == stored[f"activation_{index}"].tobytes()
            assert loaded.constraint.a.tobytes() == stored[f"constraint_a_{index}"].tobytes()
            assert loaded.constraint.b.tobytes() == stored[f"constraint_b_{index}"].tobytes()
            meta = np.array([loaded.margin, float(loaded.region_index)])
            assert meta.tobytes() == stored[f"meta_{index}"].tobytes()
            assert_same_entry(loaded, original)
            if isinstance(original, RegionCounterexample):
                assert loaded.vertices.tobytes() == stored[f"vertices_{index}"].tobytes()

    def test_reloaded_entries_dedup_as_before(self):
        restored = CounterexamplePool.load(self.PATH)
        entries = checkpoint_entries()
        assert not any(restored.add(entry) for entry in entries)
        assert restored.extend(entries) == 0
        plain = [entry for entry in entries if type(entry) is Counterexample]
        assert restored.extend(batch_of(plain)) == 0
        # Entry 3 was pinned to an activation point that rounds to its point:
        # it is the unpinned point.
        unpinned = Counterexample(entries[3].point, entries[3].constraint, 9.0, 9)
        assert not restored.add(unpinned)
        moved = Counterexample(entries[2].point, entries[2].constraint, 1.0, 2)
        assert restored.add(moved)
        assert len(restored) == 8

    def test_resave_writes_the_same_arrays(self, tmp_path):
        stored = dict(np.load(self.PATH))
        CounterexamplePool.load(self.PATH).save(tmp_path / "again.npz")
        again = dict(np.load(tmp_path / "again.npz"))
        assert sorted(again) == sorted(stored)
        for name, array in stored.items():
            assert again[name].dtype == array.dtype and again[name].tobytes() == array.tobytes()


class TestCappedIntake:
    """With ``max_new_counterexamples`` the driver admits through per-entry ``add``."""

    def test_duplicates_do_not_count_against_the_cap(self, plane_scenario):
        network, spec, _ = plane_scenario
        driver = RepairDriver(
            network, spec, GridVerifier(), config=DriverConfig(max_new_counterexamples=2)
        )
        seen = make_counterexample(0.0)
        driver.pool.add(seen)
        intake = [
            seen,
            make_counterexample(0.0),
            make_counterexample(1.0),
            make_counterexample(1.0),
            make_counterexample(2.0),
            make_counterexample(3.0),
        ]
        assert driver._pool_intake(intake) == 2
        assert [entry.point[0] for entry in driver.pool.counterexamples] == [0.0, 1.0, 2.0]

    def test_capped_run_never_calls_extend(self, plane_scenario, monkeypatch):
        network, spec, _ = plane_scenario
        added = []
        add = CounterexamplePool.add

        def counting_add(pool, counterexample):
            added.append(counterexample)
            return add(pool, counterexample)

        def no_extend(pool, counterexamples):
            raise AssertionError("capped intake went through extend")

        monkeypatch.setattr(CounterexamplePool, "add", counting_add)
        monkeypatch.setattr(CounterexamplePool, "extend", no_extend)
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_new_counterexamples=3, max_rounds=8),
        ).run()
        assert report.status == "certified"
        assert added
        assert all(record.new_counterexamples <= 3 for record in report.rounds)
        assert report.pool_size == sum(record.new_counterexamples for record in report.rounds)


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

        monkeypatch.setitem(_BACKENDS, "scipy", standard_form_backend(ErrorSolver))
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

        monkeypatch.setitem(_BACKENDS, "scipy", standard_form_backend(CrashingSolver))
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
