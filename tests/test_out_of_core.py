"""Tests for the out-of-core repair pipeline.

Four layers of pinning:

* a **differential matrix**: driver runs with a ``memory_budget`` — tiny
  (single-point chunks plus pool spilling), ragged (a few points per
  chunk), and huge (one chunk) — reproduce the unbudgeted run byte for byte on the strengthened ACAS φ8 spec and on an
  MNIST-fog digits spec;
* a **property-based oracle** (hypothesis): *any* chunk partition of the
  Jacobian→LP row stream yields the same LP solution bytes as one chunk —
  the determinism contract of
  :class:`~repro.core.jacobian.JacobianChunkStream` — and the verdict and
  objective of one dense block solved cold;
* unit tests for the new tiers: chunk-stream assembly and telemetry, the
  batched finite-difference checker against the closed-form Jacobians,
  pool spill semantics (windowing, dedup across spilled segments,
  ``point_spec`` equality, save/load round trips, the atomic-save
  kill-injection), and the exhaustively-certifying sampling verifier;
* an **end-to-end** driver-certified SqueezeNet-mini repair under a small
  memory budget, with entries spilled to disk and a certified report
  byte-identical to the unbudgeted run.

Every driver matrix is also run with the frozen-prefix cache switched off
(:func:`tests.conftest.prefix_cache_off`): cached runs must reproduce the
uncached verdicts and delta bytes on φ8, MNIST-fog and SqueezeNet-mini,
budgeted or not.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import (
    DEFAULT_CHUNK_BYTES,
    JacobianChunkStream,
    _encode_batch,
    finite_difference_jacobians,
)
from repro.core.point_repair import point_repair
from repro.core.prefix_cache import PrefixCache
from repro.core.specs import PointRepairSpec
from repro.datasets.acas import phi8_property
from repro.datasets.corruptions import fog_corrupt
from repro.datasets.digits import render_digit
from repro.driver import DriverConfig, RepairDriver
from repro.driver.pool import CounterexamplePool
from repro.experiments.task1_imagenet import (
    classifier_perturbation_workload,
    driver_certified_repair,
    pointwise_verification_spec,
)
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.lp.backends import get_backend
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.models.acas_models import build_acas_network
from repro.polytope.hpolytope import HPolytope
from repro.utils.rng import ensure_rng
from repro.verify.base import Counterexample, RegionStatus
from repro.verify.sampling import GridVerifier
from tests.conftest import make_random_relu_network, prefix_cache_off
from tests.oracle import dense_standard_form, max_row_violation
from tests.test_incremental import assert_reports_identical, value_parameters

#: A budget so small every tier degenerates: single-point chunk batches,
#: single-column CSR pieces, and a pool window that spills on every add.
TINY_BUDGET = 4_096
#: A budget producing ragged chunk batches (a few points each).
RAGGED_BUDGET = 262_144
#: A budget nothing ever exceeds: the chunked code path with one chunk.
HUGE_BUDGET = 1 << 30


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


def small_workload(seed: int = 0, num_points: int = 7, shape=(4, 10, 6, 3)):
    """A random ReLU network plus a pointwise classification repair spec."""
    rng = ensure_rng(seed)
    network = make_random_relu_network(rng, shape)
    ddnn = DecoupledNetwork.from_network(network)
    points = rng.uniform(-1.0, 1.0, size=(num_points, shape[0]))
    labels = rng.integers(0, shape[-1], size=num_points)
    spec = PointRepairSpec.from_labels(
        points, labels, num_classes=shape[-1], margin=1e-4
    )
    return ddnn, ddnn.repairable_layer_indices()[-1], spec


def canonical(matrix) -> sp.csr_matrix:
    block = sp.csr_matrix(matrix)
    block.sum_duplicates()
    block.sort_indices()
    return block


def assert_same_standard_form(blocks, dense_lhs, dense_rhs) -> None:
    """The stacked CSR blocks equal the canonical CSR of the dense encode."""
    stacked = canonical(sp.vstack([block for block, _ in blocks]))
    reference = canonical(dense_lhs)
    assert stacked.shape == reference.shape
    assert stacked.indptr.tobytes() == reference.indptr.tobytes()
    assert stacked.indices.tobytes() == reference.indices.tobytes()
    assert stacked.data.tobytes() == reference.data.tobytes()
    rhs = np.concatenate([rhs for _, rhs in blocks])
    assert rhs.tobytes() == dense_rhs.tobytes()


class TestChunkStreamAssembly:
    """The stream's CSR blocks reassemble the dense encode byte for byte."""

    @pytest.mark.parametrize("chunk_bytes", [1, 2_048, DEFAULT_CHUNK_BYTES])
    def test_blocks_assemble_dense_standard_form(self, chunk_bytes):
        ddnn, layer, spec = small_workload()
        dense_lhs, dense_rhs = _encode_batch(ddnn, layer, spec)
        stream = JacobianChunkStream(ddnn, layer, spec, max_chunk_bytes=chunk_bytes)
        blocks = list(stream)
        assert len(blocks) == len(stream)
        assert_same_standard_form(blocks, dense_lhs, dense_rhs)

    def test_explicit_single_point_batches(self):
        # One point per batch forces the pad-to-two encode for every batch.
        ddnn, layer, spec = small_workload()
        dense_lhs, dense_rhs = _encode_batch(ddnn, layer, spec)
        stream = JacobianChunkStream(ddnn, layer, spec, points_per_batch=1)
        blocks = list(stream)
        assert len(blocks) == spec.num_points
        assert_same_standard_form(blocks, dense_lhs, dense_rhs)

    def test_chunk_telemetry_counts_pieces_by_layer(self):
        ddnn, layer, spec = small_workload()
        with obs.isolated() as registry:
            stream = JacobianChunkStream(ddnn, layer, spec, points_per_batch=3)
            list(stream)
            snapshot = registry.snapshot()["repro_jacobian_chunks_total"]
            (series,) = snapshot["series"]
            assert series["labels"] == {"layer": str(layer)}
            assert series["value"] == float(stream.chunks_produced)
        assert stream.chunks_produced >= len(stream)

    def test_rejects_nonpositive_budget(self):
        ddnn, layer, spec = small_workload()
        with pytest.raises(ValueError):
            JacobianChunkStream(ddnn, layer, spec, max_chunk_bytes=0)


class TestFiniteDifferenceBatch:
    """The batched checker matches the closed-form Jacobians per slice."""

    def test_matches_closed_form_on_column_slice(self):
        ddnn, layer, spec = small_workload(num_points=4)
        _, jacobians = ddnn.batch_parameter_jacobian(
            layer, spec.points, spec.activation_points
        )
        columns = np.array([0, 3, jacobians.shape[2] - 1])
        estimated = finite_difference_jacobians(
            ddnn, layer, spec.points, spec.activation_points, columns=columns
        )
        assert estimated.shape == (spec.num_points, ddnn.output_size, columns.size)
        np.testing.assert_allclose(
            estimated, jacobians[:, :, columns], rtol=1e-6, atol=1e-7
        )

    def test_restores_parameters_on_exit(self):
        ddnn, layer, spec = small_workload(num_points=2)
        before = ddnn.value.layers[layer].get_parameters().copy()
        finite_difference_jacobians(
            ddnn, layer, spec.points, spec.activation_points, columns=np.array([1])
        )
        assert ddnn.value.layers[layer].get_parameters().tobytes() == before.tobytes()


def one_block_solution(ddnn, layer, spec, *, sparse: bool):
    """The whole spec's rows as one dense LP block, solved cold.

    ``sparse=False`` solves the dense by-eye standard form instead of CSR.
    """
    model = LPModel()
    delta = model.add_variables(ddnn.value.layers[layer].num_parameters, "delta")
    add_norm_objective(model, delta, "linf")
    lhs, rhs = _encode_batch(ddnn, layer, spec)
    model.add_leq_block(lhs, rhs, delta)
    if sparse:
        return model.solve()
    return get_backend().solve(*dense_standard_form(model))


def assert_matches_one_block(repair, ddnn, layer, spec, *, sparse: bool) -> None:
    """A repair vs the one-block LP solved cold: verdict, objective, rows.

    Not bytes: ``point_repair`` admits rows by row generation and re-solves
    warm, which may reach a different optimal vertex of the same LP.
    """
    cold = one_block_solution(ddnn, layer, spec, sparse=sparse)
    assert repair.feasible == cold.status.is_optimal
    if repair.feasible:
        assert repair.objective_value == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        assert max_row_violation(ddnn, layer, spec, repair.delta) <= 1e-7


class TestChunkedRepairDifferential:
    """point_repair with any chunk budget returns the same bytes, and the
    one-block LP's verdict and objective."""

    @pytest.mark.parametrize("chunk_bytes", [1, 2_048, HUGE_BUDGET])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_chunked_matches_dense(self, chunk_bytes, sparse):
        ddnn, layer, spec = small_workload()
        chunked = point_repair(ddnn, layer, spec, max_chunk_bytes=chunk_bytes)
        one_chunk = point_repair(ddnn, layer, spec, max_chunk_bytes=HUGE_BUDGET)
        assert chunked.feasible
        assert chunked.delta.tobytes() == one_chunk.delta.tobytes()
        assert_matches_one_block(chunked, ddnn, layer, spec, sparse=sparse)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), chunk_bytes=st.integers(1, 1 << 16))
    def test_any_partition_yields_identical_solutions(self, seed, chunk_bytes):
        ddnn, layer, spec = small_workload(seed=seed, num_points=5)
        chunked = point_repair(ddnn, layer, spec, max_chunk_bytes=chunk_bytes)
        one_chunk = point_repair(ddnn, layer, spec, max_chunk_bytes=HUGE_BUDGET)
        assert chunked.feasible == one_chunk.feasible
        if chunked.feasible:
            assert chunked.delta.tobytes() == one_chunk.delta.tobytes()
        assert_matches_one_block(chunked, ddnn, layer, spec, sparse=True)


def make_counterexample(rng, dimension: int = 6, outputs: int = 3) -> Counterexample:
    """A synthetic point counterexample with a one-row output constraint."""
    return Counterexample(
        point=rng.uniform(-1.0, 1.0, dimension),
        constraint=HPolytope(
            rng.uniform(-1.0, 1.0, (1, outputs)), rng.uniform(-1.0, 1.0, 1)
        ),
        margin=float(rng.uniform(0.1, 1.0)),
        region_index=int(rng.integers(0, 100)),
        activation_point=rng.uniform(-1.0, 1.0, dimension),
    )


class TestPoolSpill:
    """The disk-spill tier changes residency, never contents."""

    def fill(self, pool: CounterexamplePool, count: int = 40, seed: int = 3):
        rng = ensure_rng(seed)
        added = [make_counterexample(rng) for _ in range(count)]
        for counterexample in added:
            assert pool.add(counterexample)
        return added

    def test_spills_bound_residency_and_preserve_order(self, tmp_path):
        pool = CounterexamplePool(max_resident_bytes=1_000, spill_dir=tmp_path)
        added = self.fill(pool)
        assert len(pool) == len(added)
        assert pool.spilled_entries > 0
        assert pool.resident_bytes <= 1_000
        for stored, original in zip(pool.counterexamples, added):
            assert stored.point.tobytes() == original.point.tobytes()
            assert stored.margin == original.margin
            assert stored.constraint.a.tobytes() == original.constraint.a.tobytes()

    def test_point_spec_identical_to_unbounded_pool(self, tmp_path):
        bounded = CounterexamplePool(max_resident_bytes=1_000, spill_dir=tmp_path)
        unbounded = CounterexamplePool()
        rng = ensure_rng(11)
        for counterexample in [make_counterexample(rng) for _ in range(30)]:
            bounded.add(counterexample)
            unbounded.add(counterexample)
        assert bounded.spilled_entries > 0 and unbounded.spilled_entries == 0
        for margin, start in [(0.0, 0), (1e-4, 7)]:
            a = bounded.point_spec(margin=margin, start=start)
            b = unbounded.point_spec(margin=margin, start=start)
            assert a.points.tobytes() == b.points.tobytes()
            assert a.activation_points.tobytes() == b.activation_points.tobytes()
            for left, right in zip(a.constraints, b.constraints):
                assert left.a.tobytes() == right.a.tobytes()
                assert left.b.tobytes() == right.b.tobytes()

    def test_dedup_sees_spilled_entries(self, tmp_path):
        pool = CounterexamplePool(max_resident_bytes=1_000, spill_dir=tmp_path)
        added = self.fill(pool)
        assert pool.spilled_entries > 0
        # Every entry — including long-spilled ones — is still a duplicate:
        # the dedup keys never leave memory.
        for counterexample in added:
            assert not pool.add(counterexample)
        assert len(pool) == len(added)

    def test_worst_margin_and_key_points_never_touch_disk(self, tmp_path):
        pool = CounterexamplePool(max_resident_bytes=1_000, spill_dir=tmp_path)
        added = self.fill(pool)
        assert pool.worst_margin == max(entry.margin for entry in added)
        assert pool.num_key_points == len(added)

    def test_save_load_round_trip_across_spill_tiers(self, tmp_path):
        pool = CounterexamplePool(max_resident_bytes=1_000, spill_dir=tmp_path / "a")
        added = self.fill(pool)
        checkpoint = tmp_path / "pool.npz"
        pool.save(checkpoint)
        # Reload bounded (spills during the reload itself) and unbounded.
        bounded = CounterexamplePool.load(
            checkpoint, max_resident_bytes=1_000, spill_dir=tmp_path / "b"
        )
        unbounded = CounterexamplePool.load(checkpoint)
        assert bounded.spilled_entries > 0 and unbounded.spilled_entries == 0
        for restored in (bounded, unbounded):
            assert len(restored) == len(added)
            for stored, original in zip(restored.counterexamples, added):
                assert stored.point.tobytes() == original.point.tobytes()
                assert (
                    stored.resolved_activation_point().tobytes()
                    == original.resolved_activation_point().tobytes()
                )

    def test_spill_counter_telemetry(self, tmp_path):
        with obs.isolated() as registry:
            pool = CounterexamplePool(max_resident_bytes=1_000, spill_dir=tmp_path)
            self.fill(pool)
            assert pool.spilled_entries > 0
            snapshot = registry.snapshot()["repro_pool_spilled_entries_total"]
            (series,) = snapshot["series"]
            assert series["value"] == float(pool.spilled_entries)


class TestAtomicCheckpoint:
    """A kill mid-save can never tear an existing checkpoint."""

    def test_interrupted_save_leaves_previous_checkpoint_intact(
        self, tmp_path, monkeypatch
    ):
        rng = ensure_rng(5)
        pool = CounterexamplePool()
        first = [make_counterexample(rng) for _ in range(4)]
        for counterexample in first:
            pool.add(counterexample)
        checkpoint = tmp_path / "pool.npz"
        pool.save(checkpoint)
        good_bytes = checkpoint.read_bytes()

        pool.add(make_counterexample(rng))

        # Inject the kill between the temp-file write and the rename: the
        # atomic-save contract says the previous checkpoint must survive.
        import repro.utils.serialization as serialization

        def killed(src, dst):
            raise OSError("injected kill between write and rename")

        monkeypatch.setattr(serialization.os, "replace", killed)
        with pytest.raises(OSError, match="injected kill"):
            pool.save(checkpoint)
        monkeypatch.undo()

        assert checkpoint.read_bytes() == good_bytes
        restored = CounterexamplePool.load(checkpoint)
        assert len(restored) == len(first)
        for stored, original in zip(restored.counterexamples, first):
            assert stored.point.tobytes() == original.point.tobytes()


class TestDriverDifferential:
    """Budgeted driver runs reproduce unbudgeted runs byte for byte."""

    def run(self, network, spec, *, memory_budget=None):
        from repro.verify import SyrennVerifier

        return RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(
                max_rounds=20,
                max_new_counterexamples=4,
                memory_budget=memory_budget,
            ),
        ).run()

    @pytest.mark.parametrize(
        "memory_budget", [TINY_BUDGET, RAGGED_BUDGET, HUGE_BUDGET]
    )
    def test_budgeted_matches_unbudgeted_on_acas(self, acas_phi8, memory_budget):
        network, spec = acas_phi8
        reference = self.run(network, spec)
        budgeted = self.run(network, spec, memory_budget=memory_budget)
        assert reference.status == "certified"
        assert budgeted.status == "certified"
        assert budgeted.num_rounds == reference.num_rounds
        assert value_parameters(budgeted) == value_parameters(reference)
        assert_reports_identical(budgeted.final_report, reference.final_report)
        for reference_round, budgeted_round in zip(
            reference.rounds, budgeted.rounds
        ):
            assert budgeted_round.pool_size == reference_round.pool_size
            assert budgeted_round.lp_rows_appended == reference_round.lp_rows_appended

    def test_budgeted_matches_unbudgeted_on_fogged_digits(self):
        # The MNIST-fog flavor of the matrix: fog-corrupted rendered digits
        # through a small ReLU classifier, repaired pointwise by the driver
        # with and without a tiny memory budget.
        rng = ensure_rng(2)
        side = 8
        network = make_random_relu_network(rng, (side * side, 12, 4))
        images = np.stack(
            [
                fog_corrupt(render_digit(digit, rng, side=side), 0.5, rng)
                for digit in (0, 1, 2, 3, 4, 7)
            ]
        )
        labels = np.argmax(network.compute(images), axis=1)
        # Ask for a margin the network does not currently meet, so at least
        # one region is violated and the driver has actual repair work.
        spec = pointwise_verification_spec(images, labels, 4, margin=0.05)

        def run(memory_budget):
            return RepairDriver(
                network,
                spec,
                GridVerifier(certify_exhaustive=True),
                config=DriverConfig(max_rounds=8, memory_budget=memory_budget),
            ).run()

        reference = run(None)
        budgeted = run(TINY_BUDGET)
        assert reference.status == "certified"
        assert budgeted.status == "certified"
        assert budgeted.num_rounds == reference.num_rounds
        assert value_parameters(budgeted) == value_parameters(reference)
        assert_reports_identical(budgeted.final_report, reference.final_report)


class TestCertifyExhaustive:
    """Single-point regions become provable under ``certify_exhaustive``."""

    def build(self, seed=4):
        rng = ensure_rng(seed)
        network = make_random_relu_network(rng, (3, 8, 3))
        point = rng.uniform(-1.0, 1.0, 3)
        label = int(np.argmax(network.compute(point)))
        return network, point, label

    def test_degenerate_clean_region_is_certified(self):
        network, point, label = self.build()
        spec = pointwise_verification_spec(point[None, :], [label], 3, margin=0.0)
        report = GridVerifier(certify_exhaustive=True).verify(network, spec)
        assert report.region_statuses == [RegionStatus.CERTIFIED]
        assert report.certified

    def test_without_flag_clean_region_stays_unknown(self):
        network, point, label = self.build()
        spec = pointwise_verification_spec(point[None, :], [label], 3, margin=0.0)
        report = GridVerifier().verify(network, spec)
        assert report.region_statuses == [RegionStatus.UNKNOWN]
        assert not report.certified

    def test_violated_degenerate_region_reports_counterexample(self):
        network, point, label = self.build()
        wrong = (label + 1) % 3
        spec = pointwise_verification_spec(point[None, :], [wrong], 3, margin=1e6)
        report = GridVerifier(certify_exhaustive=True).verify(network, spec)
        assert report.region_statuses == [RegionStatus.VIOLATED]
        assert len(report.counterexamples) == 1
        assert not report.certified

    def test_nondegenerate_region_is_never_certified(self):
        network, point, label = self.build()
        spec = pointwise_verification_spec(point[None, :], [label], 3, margin=0.0)
        spec.add_box(
            point - 0.1,
            point + 0.1,
            spec.regions[0].constraint,
            name="a real box",
        )
        report = GridVerifier(certify_exhaustive=True).verify(network, spec)
        assert report.region_statuses[0] == RegionStatus.CERTIFIED
        assert report.region_statuses[1] == RegionStatus.UNKNOWN
        assert not report.certified

    def test_stacked_fast_path_matches_per_region_sweep(self):
        # All-degenerate specs take the one-stacked-pass sweep; mixing in a
        # real box forces the per-region path.  Same points, same verdicts.
        network, point, label = self.build()
        rng = ensure_rng(9)
        points = rng.uniform(-1.0, 1.0, size=(5, 3))
        labels = np.argmax(network.compute(points), axis=1)
        spec = pointwise_verification_spec(points, labels, 3, margin=0.0)
        fast = GridVerifier(certify_exhaustive=True).verify(network, spec)
        slow_spec = pointwise_verification_spec(points, labels, 3, margin=0.0)
        slow_spec.add_box(
            points[0] - 0.05, points[0] + 0.05, spec.regions[0].constraint, name="box"
        )
        slow = GridVerifier(certify_exhaustive=True).verify(network, slow_spec)
        assert fast.region_statuses == slow.region_statuses[: len(points)]


class TestSqueezeNetWorkload:
    """The scalable classifier-perturbation workload and its certified repair."""

    @pytest.fixture(scope="class")
    def workload(self):
        return classifier_perturbation_workload(24, side=8, seed=1)

    def test_workload_invariants(self, workload):
        assert workload.num_points == 24
        assert workload.constraint_rows == 24 * (workload.num_classes - 1)
        original_logits = workload.original.compute(workload.points)
        assert (np.argmax(original_logits, axis=1) == workload.labels).all()
        # Every point genuinely violates on the buggy network.
        buggy_logits = workload.buggy.compute(workload.points)
        assert (np.argmax(buggy_logits, axis=1) != workload.labels).any()

    def test_bug_is_exactly_invertible(self, workload):
        # Restoring the classifier parameters reproduces the original's
        # outputs byte for byte — the feasibility witness at any scale.
        repaired = workload.buggy.copy()
        layer = repaired.layers[workload.classifier_layer]
        layer.set_parameters(
            workload.original.layers[workload.classifier_layer].get_parameters()
        )
        assert (
            repaired.compute(workload.points).tobytes()
            == workload.original.compute(workload.points).tobytes()
        )

    def test_driver_certifies_under_small_budget_with_spills(self, workload):
        report, driver = driver_certified_repair(workload, memory_budget=64 * 1024)
        assert report.status == "certified"
        assert report.certified
        assert report.num_rounds == 2
        assert driver.pool.spilled_entries > 0
        assert driver.pool.resident_bytes <= 16 * 1024
        # The repaired network satisfies the verification spec outright.
        clean = GridVerifier(certify_exhaustive=True).verify(
            report.network.value, workload.verification_spec()
        )
        assert clean.certified

    def test_budgeted_run_matches_unbudgeted_run(self, workload):
        budgeted, _ = driver_certified_repair(workload, memory_budget=64 * 1024)
        unbudgeted, _ = driver_certified_repair(workload)
        assert budgeted.status == unbudgeted.status == "certified"
        assert budgeted.num_rounds == unbudgeted.num_rounds
        assert value_parameters(budgeted) == value_parameters(unbudgeted)
        assert_reports_identical(budgeted.final_report, unbudgeted.final_report)

    def test_workload_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            classifier_perturbation_workload(0)
        with pytest.raises(ValueError):
            classifier_perturbation_workload(4, num_classes=9, bug_class=9)


@contextmanager
def served_batches():
    """Collects one entry per batch a prefix cache served (hit or stored)."""
    served = []
    real = PrefixCache.layer_inputs

    def counting(self, *args):
        inputs = real(self, *args)
        if inputs is not None:
            served.append(self.layer_index)
        return inputs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrefixCache, "layer_inputs", counting)
        yield served


def assert_same_outcome(cached, uncached) -> None:
    assert cached.status == uncached.status
    assert cached.num_rounds == uncached.num_rounds
    assert value_parameters(cached) == value_parameters(uncached)
    assert cached.unsatisfied_pool_indices == uncached.unsatisfied_pool_indices
    assert_reports_identical(cached.final_report, uncached.final_report)
    for cached_round, uncached_round in zip(cached.rounds, uncached.rounds):
        assert cached_round.pool_size == uncached_round.pool_size
        assert cached_round.lp_rows_appended == uncached_round.lp_rows_appended


def fogged_digits_scenario(count: int = 40):
    """Fog-corrupted rendered digits, enough per batch to be worth caching."""
    rng = ensure_rng(2)
    side = 8
    network = make_random_relu_network(rng, (side * side, 12, 4))
    images = np.stack(
        [
            fog_corrupt(render_digit(digit % 10, rng, side=side), 0.5, rng)
            for digit in range(count)
        ]
    )
    labels = np.argmax(network.compute(images), axis=1)
    return network, pointwise_verification_spec(images, labels, 4, margin=0.05)


class TestPrefixCacheDifferential:
    """The frozen-prefix cache changes no verdict and no delta byte."""

    def run(self, network, spec, **knobs):
        return TestDriverDifferential().run(network, spec, **knobs)

    @pytest.mark.parametrize("memory_budget", [None, TINY_BUDGET, RAGGED_BUDGET])
    def test_acas_cached_matches_uncached(self, acas_phi8, memory_budget):
        network, spec = acas_phi8
        with served_batches() as served:
            cached = self.run(network, spec, memory_budget=memory_budget)
        with prefix_cache_off():
            uncached = self.run(network, spec, memory_budget=memory_budget)
        assert cached.status == "certified"
        assert served
        assert_same_outcome(cached, uncached)

    @pytest.mark.parametrize("memory_budget", [None, TINY_BUDGET])
    def test_fogged_digits_cached_matches_uncached(self, memory_budget):
        network, spec = fogged_digits_scenario()

        def run():
            return RepairDriver(
                network,
                spec,
                GridVerifier(certify_exhaustive=True),
                config=DriverConfig(max_rounds=8, memory_budget=memory_budget),
            ).run()

        with served_batches() as served:
            cached = run()
        with prefix_cache_off():
            uncached = run()
        assert cached.status == "certified"
        assert served
        assert_same_outcome(cached, uncached)

    @pytest.mark.parametrize("memory_budget", [None, 64 * 1024])
    def test_squeezenet_cached_matches_uncached(self, memory_budget):
        workload = classifier_perturbation_workload(24, side=8, seed=1)

        def run():
            return driver_certified_repair(workload, memory_budget=memory_budget)

        with served_batches() as served:
            cached, driver = run()
        with prefix_cache_off():
            uncached, _ = run()
        assert cached.status == "certified"
        assert served
        if memory_budget is not None:
            assert driver.pool.spilled_entries > 0
        assert_same_outcome(cached, uncached)
