"""Tests for the parallel execution engine (repro.engine).

The differential tests pin the acceptance guarantee of the subsystem: an
engine-backed run at any worker count — including ``workers=4`` across a
``spawn`` pool — produces byte-identical partitions, verification verdicts,
and repair deltas to the serial path, on the ACAS φ8 specification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.acas import phi8_property
from repro.driver import DriverConfig, RepairDriver
from repro.engine import (
    JobScheduler,
    ShardedSyrennEngine,
    geometry_digest,
    merge_line_partitions,
    shard_polygon,
    shard_segment,
)
from repro.exceptions import EngineError, JobCancelledError
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.models.acas_models import build_acas_network
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.utils.rng import derive_seeds, ensure_rng
from repro.utils.timing import TimeBudget
from repro.verify import (
    GridVerifier,
    RandomVerifier,
    SyrennVerifier,
    VerificationSpec,
    Verifier,
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
def mixed_spec() -> VerificationSpec:
    spec = VerificationSpec()
    constraint = HPolytope.argmax_region(3, 0, 1e-4)
    spec.add_plane([[-1, -1], [1, -1], [1, 1], [-1, 1]], constraint)
    spec.add_segment(LineSegment([-1.0, 0.0], [1.0, 0.0]), constraint)
    spec.add_box([-0.5, -1.0], [0.5, 1.0], constraint)
    spec.add_box([0.25, 0.25], [0.25, 0.25], constraint)  # degenerate: a point
    return spec


@pytest.fixture(scope="module")
def acas_phi8():
    """A small untrained ACAS advisory network plus the φ8 slice spec."""
    seed_rng = ensure_rng(7)
    network = build_acas_network(hidden_size=8, hidden_layers=2, seed=7)
    safety_property = phi8_property()
    slices = [safety_property.random_slice(seed_rng) for _ in range(3)]
    empty = np.zeros((0, 5))
    setup = Task3Setup(network, safety_property, slices, empty, empty, 0)
    spec = strengthened_verification_spec(network, setup)
    return network, spec


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
        if a.activation_point is not None:
            assert a.activation_point.tobytes() == b.activation_point.tobytes()


class TestSharding:
    def test_shard_segment_endpoints(self):
        segment = LineSegment([0.0, 0.0], [4.0, 8.0])
        shards = shard_segment(segment, 4)
        assert len(shards) == 4
        np.testing.assert_array_equal(shards[0].start, segment.start)
        np.testing.assert_array_equal(shards[-1].end, segment.end)
        for earlier, later in zip(shards, shards[1:]):
            np.testing.assert_array_equal(earlier.end, later.start)

    def test_shard_segment_single_is_identity(self):
        segment = LineSegment([0.0], [1.0])
        assert shard_segment(segment, 1) == [segment]

    def test_shard_polygon_covers_and_caps(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        wedges = shard_polygon(square, 2)
        assert len(wedges) == 2
        # A square's fan has two triangles, so requesting more caps there.
        assert len(shard_polygon(square, 8)) == 2
        from repro.polytope.polygon import polygon_area

        total = sum(polygon_area(wedge) for wedge in wedges)
        assert total == pytest.approx(1.0)

    def test_merge_line_partitions_refines_serial(self, plane_network):
        segment = LineSegment([-1.0, -1.0], [1.0, 1.0])
        serial = transform_line(plane_network, segment)
        shards = shard_segment(segment, 3)
        merged = merge_line_partitions(
            segment, [transform_line(plane_network, shard).ratios for shard in shards]
        )
        # Every serial breakpoint must appear in the merged (refined) set.
        for ratio in serial.ratios:
            assert np.min(np.abs(merged.ratios - ratio)) < 1e-7
        assert merged.ratios[0] == 0.0 and merged.ratios[-1] == 1.0
        assert np.all(np.diff(merged.ratios) > 0)

    def test_geometry_digest_separates_shard_layouts(self):
        segment = LineSegment([0.0], [1.0])
        assert geometry_digest(segment) == geometry_digest(segment, shards=1)
        assert geometry_digest(segment, shards=2) != geometry_digest(segment)


class TestJobScheduler:
    def test_priority_order_with_submission_tiebreak(self):
        dispatched = []

        def executor(tasks):
            dispatched.extend(tasks)
            return [task * 10 for task in tasks]

        scheduler = JobScheduler(executor=executor)
        scheduler.submit(1, priority=5)
        scheduler.submit(2, priority=0)
        scheduler.submit(3, priority=0)
        jobs = [scheduler.submit(4, priority=-1)]
        scheduler.gather(jobs)
        assert dispatched == [4, 2, 3, 1]

    def test_gather_returns_results_in_given_order(self):
        scheduler = JobScheduler(executor=lambda tasks: [task + 1 for task in tasks])
        jobs = scheduler.submit_many([10, 20, 30])
        assert scheduler.gather(list(reversed(jobs))) == [31, 21, 11]
        assert scheduler.jobs_executed == 3

    def test_cancelled_job_is_never_dispatched(self):
        dispatched = []

        def executor(tasks):
            dispatched.extend(tasks)
            return tasks

        scheduler = JobScheduler(executor=executor)
        keep = scheduler.submit("keep")
        drop = scheduler.submit("drop")
        assert scheduler.cancel(drop)
        with pytest.raises(JobCancelledError):
            scheduler.gather([keep, drop])
        assert dispatched == ["keep"]
        assert scheduler.gather([keep, drop], on_cancelled="none") == ["keep", None]

    def test_exhausted_budget_cancels_pending(self):
        scheduler = JobScheduler(executor=lambda tasks: tasks)
        jobs = scheduler.submit_many([1, 2, 3])
        results = scheduler.gather(jobs, budget=TimeBudget(0.0), on_cancelled="none")
        assert results == [None, None, None]
        assert scheduler.jobs_cancelled == 3
        assert scheduler.jobs_executed == 0

    def test_budget_interrupts_between_batches(self):
        import time as time_module

        def slow_executor(tasks):
            time_module.sleep(0.02)
            return tasks

        scheduler = JobScheduler(executor=slow_executor, batch_size=1)
        jobs = scheduler.submit_many(list(range(10)))
        results = scheduler.gather(jobs, budget=TimeBudget(0.01), on_cancelled="none")
        # The first batch ran (budget was fresh), later ones were cancelled.
        assert results[0] == 0
        assert None in results
        assert 0 < scheduler.jobs_executed < 10

    def test_engine_decomposition_honors_budget(self, plane_network):
        engine = ShardedSyrennEngine(workers=1, cache=False)
        segments = [
            LineSegment([-1.0, float(i) / 8.0], [1.0, float(i) / 8.0]) for i in range(8)
        ]
        with pytest.raises(JobCancelledError):
            engine.transform_lines(plane_network, segments, budget=TimeBudget(0.0))

    def test_map_unordered_yields_all_indexed_results(self):
        scheduler = JobScheduler(executor=lambda tasks: [task * 2 for task in tasks])
        results = dict(scheduler.map_unordered([5, 6, 7]))
        assert results == {0: 10, 1: 12, 2: 14}

    def test_batch_size_bounds_dispatches(self):
        sizes = []

        def executor(tasks):
            sizes.append(len(tasks))
            return tasks

        scheduler = JobScheduler(executor=executor, batch_size=2)
        scheduler.gather(scheduler.submit_many(list(range(5))))
        assert sizes == [2, 2, 1]
        assert scheduler.batches_dispatched == 3

    def test_gather_stops_once_requested_jobs_settle(self):
        executed = []

        def executor(tasks):
            executed.extend(tasks)
            return tasks

        scheduler = JobScheduler(executor=executor, batch_size=1)
        urgent = scheduler.submit("urgent", priority=-1)
        background = scheduler.submit_many(["bg0", "bg1", "bg2"])
        assert scheduler.gather([urgent]) == ["urgent"]
        # Background work was not drained on the urgent job's behalf...
        assert executed == ["urgent"]
        assert scheduler.pending() == 3
        # ...and is still there for its own gather later.
        assert scheduler.gather(background) == ["bg0", "bg1", "bg2"]

    def test_cobatched_jobs_keep_their_results(self):
        """Jobs dispatched in the same batch as a gathered job stay settled."""
        scheduler = JobScheduler(executor=lambda tasks: [task * 2 for task in tasks])
        first = scheduler.submit(1)
        second = scheduler.submit(2)  # same batch as `first`
        assert scheduler.gather([first]) == [2]
        assert second.done  # executed alongside first, result retained
        assert scheduler.gather([second]) == [4]

    def test_executor_length_mismatch_rejected(self):
        scheduler = JobScheduler(executor=lambda tasks: [])
        with pytest.raises(EngineError):
            scheduler.gather([scheduler.submit(1)])

    def test_default_executor_runs_callables(self):
        scheduler = JobScheduler()
        job = scheduler.submit(lambda: 42)
        assert scheduler.gather([job]) == [42]


class TestEngineValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(EngineError):
            ShardedSyrennEngine(workers=0)
        with pytest.raises(EngineError):
            ShardedSyrennEngine(shards_per_region=0)

    def test_stats_shape(self):
        engine = ShardedSyrennEngine(workers=1, cache=False)
        stats = engine.stats()
        assert stats["workers"] == 1
        assert stats["cache"] is None
        assert stats["jobs_executed"] == 0


class TestSerialEquivalence:
    """workers=1 must preserve today's exact serial behavior bit for bit."""

    def test_transform_line_matches_syrenn(self, plane_network, tmp_path):
        segment = LineSegment([-1.0, 0.5], [1.0, -0.5])
        serial = transform_line(plane_network, segment)
        engine = ShardedSyrennEngine(workers=1, cache=False)
        assert engine.transform_line(plane_network, segment).ratios.tobytes() == (
            serial.ratios.tobytes()
        )

    def test_verifier_reports_identical(self, plane_network, mixed_spec):
        serial = SyrennVerifier().verify(plane_network, mixed_spec)
        engine = ShardedSyrennEngine(workers=1, cache=False)
        backed = SyrennVerifier(engine=engine).verify(plane_network, mixed_spec)
        assert_reports_identical(serial, backed)

    def test_cached_second_pass_identical(self, plane_network, mixed_spec, tmp_path):
        from repro.engine import PartitionCache

        engine = ShardedSyrennEngine(
            workers=1, cache=PartitionCache(directory=tmp_path)
        )
        verifier = SyrennVerifier(engine=engine)
        first = verifier.verify(plane_network, mixed_spec)
        executed = engine.scheduler.jobs_executed
        second = verifier.verify(plane_network, mixed_spec)
        assert engine.scheduler.jobs_executed == executed  # served from cache
        assert engine.cache.stats.memory.hits > 0
        assert_reports_identical(first, second)

    def test_grid_verifier_identical_through_engine(self, plane_network, mixed_spec):
        serial = GridVerifier(resolution=8).verify(plane_network, mixed_spec)
        engine = ShardedSyrennEngine(workers=1, cache=False)
        backed = GridVerifier(resolution=8, engine=engine).verify(plane_network, mixed_spec)
        assert_reports_identical(serial, backed)

    def test_sharded_refinement_keeps_verdicts(self, plane_network, mixed_spec):
        serial = SyrennVerifier().verify(plane_network, mixed_spec)
        engine = ShardedSyrennEngine(workers=1, shards_per_region=3, cache=False)
        sharded = SyrennVerifier(engine=engine).verify(plane_network, mixed_spec)
        assert serial.region_statuses == sharded.region_statuses
        np.testing.assert_allclose(serial.region_margins, sharded.region_margins, atol=1e-9)
        # The refinement checks at least as many linear regions.
        assert sharded.linear_regions_checked >= serial.linear_regions_checked


class TestEngineWiring:
    def test_driver_detaches_engine_after_run(self, plane_network, mixed_spec):
        verifier = SyrennVerifier()
        with ShardedSyrennEngine(workers=1, cache=False) as engine:
            report = RepairDriver(
                plane_network,
                mixed_spec,
                verifier,
                config=DriverConfig(max_rounds=6),
                engine=engine,
            ).run()
        assert report.status == "certified"
        assert report.engine_stats is not None
        assert report.engine_stats["jobs_executed"] > 0
        # The caller-owned verifier is restored, not left engine-backed.
        assert verifier.engine is None

    def test_driver_reports_stats_of_the_engine_actually_used(
        self, plane_network, mixed_spec
    ):
        """verifier's own engine wins over the driver-level one for stats."""
        with ShardedSyrennEngine(workers=1, cache=False) as used:
            with ShardedSyrennEngine(workers=1, cache=False) as unused:
                report = RepairDriver(
                    plane_network,
                    mixed_spec,
                    SyrennVerifier(engine=used),
                    config=DriverConfig(max_rounds=6),
                    engine=unused,
                ).run()
        assert report.engine_stats["jobs_executed"] == used.scheduler.jobs_executed
        assert report.engine_stats["jobs_executed"] > 0
        assert unused.scheduler.jobs_executed == 0

    def test_no_stats_when_verifier_cannot_hold_an_engine(
        self, plane_network, mixed_spec
    ):
        """An engine the verification never ran through is not reported."""

        class EnginelessVerifier(Verifier):
            """A custom verifier with no engine support at all."""

            name = "engineless"

            def __init__(self):
                super().__init__()
                self._inner = SyrennVerifier()

            def verify(self, network, spec):
                return self._inner.verify(network, spec)

        with ShardedSyrennEngine(workers=1, cache=False) as engine:
            report = RepairDriver(
                plane_network,
                mixed_spec,
                EnginelessVerifier(),
                config=DriverConfig(max_rounds=6),
                engine=engine,
            ).run()
        assert report.status == "certified"
        assert report.engine_stats is None
        assert engine.scheduler.jobs_executed == 0

    def test_cache_partitions_false_bypasses_engine_cache(
        self, plane_network, mixed_spec, tmp_path
    ):
        from repro.engine import PartitionCache

        engine = ShardedSyrennEngine(
            workers=1, cache=PartitionCache(directory=tmp_path)
        )
        SyrennVerifier(cache_partitions=False, engine=engine).verify(
            plane_network, mixed_spec
        )
        assert engine.cache.stats.memory.puts == 0
        assert engine.cache.stats.disk.puts == 0
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_batches_ignores_activation_for_plain_network(
        self, plane_network
    ):
        """Matches Verifier._evaluate: activation points only apply to DDNNs."""
        points = np.array([[0.1, -0.2], [0.4, 0.3]])
        engine = ShardedSyrennEngine(workers=1, cache=False)
        outputs = engine.evaluate_batches(
            plane_network, [points], activation_points=[points[0]]
        )
        np.testing.assert_array_equal(outputs[0], plane_network.compute(points))
        with pytest.raises(EngineError):
            engine.evaluate_batches(
                plane_network, [points, points], activation_points=[points[0]]
            )


class TestWorkerRng:
    def test_derive_seeds_deterministic_and_stream_separated(self):
        assert derive_seeds(123, 4) == derive_seeds(123, 4)
        assert derive_seeds(123, 4) != derive_seeds(124, 4)
        assert derive_seeds(123, 4, stream=1) != derive_seeds(123, 4)

    def test_random_verifier_identical_at_any_worker_count(
        self, plane_network, mixed_spec
    ):
        with ShardedSyrennEngine(workers=1, cache=False) as serial_engine:
            first = RandomVerifier(64, seed=3, engine=serial_engine).verify(
                plane_network, mixed_spec
            )
        with ShardedSyrennEngine(workers=2, cache=False) as pooled_engine:
            second = RandomVerifier(64, seed=3, engine=pooled_engine).verify(
                plane_network, mixed_spec
            )
        assert_reports_identical(first, second)

    def test_successive_sweeps_probe_fresh_points(self, plane_network, mixed_spec):
        engine = ShardedSyrennEngine(workers=1, cache=False)
        verifier = RandomVerifier(16, seed=5, engine=engine)
        first = verifier.verify(plane_network, mixed_spec)
        second = verifier.verify(plane_network, mixed_spec)
        assert first.counterexamples and second.counterexamples
        assert (
            first.counterexamples[0].point.tobytes()
            != second.counterexamples[0].point.tobytes()
        )


class TestParallelDifferential:
    """The acceptance differential: workers=4 ≡ workers=1 on the ACAS φ8 spec."""

    def test_phi8_partitions_verdicts_and_deltas_identical(self, acas_phi8):
        network, spec = acas_phi8
        serial_report = SyrennVerifier().verify(network, spec)

        with ShardedSyrennEngine(workers=4, cache=False) as engine:
            # Partitions: byte-identical linear regions for every spec region.
            normalized = [np.asarray(entry.region, dtype=np.float64) for entry in spec.regions]
            parallel_regions = engine.decompose(network, normalized)
            serial_engine = ShardedSyrennEngine(workers=1, cache=False)
            serial_regions = serial_engine.decompose(network, normalized)
            assert len(parallel_regions) == len(serial_regions)
            for parallel, serial in zip(parallel_regions, serial_regions):
                assert len(parallel) == len(serial)
                for a, b in zip(parallel, serial):
                    assert a.vertices.tobytes() == b.vertices.tobytes()
                    assert a.interior.tobytes() == b.interior.tobytes()

            # Verdicts: the engine-backed verifier reproduces the serial report.
            parallel_report = SyrennVerifier(engine=engine).verify(network, spec)
            assert_reports_identical(serial_report, parallel_report)

            # Repair deltas: the engine-backed CEGIS driver lands on the same
            # certified network, parameter for parameter.
            parallel_driver = RepairDriver(
                network,
                spec,
                SyrennVerifier(engine=engine),
                config=DriverConfig(max_rounds=4),
                engine=engine,
            )
            parallel_outcome = parallel_driver.run()

        serial_driver = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=4),
        )
        serial_outcome = serial_driver.run()
        assert serial_outcome.status == "certified"
        assert parallel_outcome.status == "certified"
        assert parallel_outcome.num_rounds == serial_outcome.num_rounds
        for layer_index in serial_outcome.network.repairable_layer_indices():
            serial_flat = serial_outcome.network.value.layers[layer_index].get_parameters()
            parallel_flat = parallel_outcome.network.value.layers[layer_index].get_parameters()
            assert serial_flat.tobytes() == parallel_flat.tobytes()

        # The engine-backed driver surfaces scheduler/cache statistics.
        assert parallel_outcome.engine_stats is not None
        assert parallel_outcome.engine_stats["workers"] == 4
        assert parallel_outcome.engine_stats["jobs_executed"] > 0
        assert "engine" in parallel_outcome.as_dict()

    def test_engine_built_spec_matches_serial_spec(self, acas_phi8):
        network, spec = acas_phi8
        setup = Task3Setup(
            network,
            phi8_property(),
            [np.asarray(entry.region) for entry in spec.regions[:0]],
            np.zeros((0, 5)),
            np.zeros((0, 5)),
            0,
        )
        # Rebuild the strengthened spec through the engine and compare.
        seed_rng = ensure_rng(7)
        setup.repair_slices = [setup.safety_property.random_slice(seed_rng) for _ in range(3)]
        with ShardedSyrennEngine(workers=2, cache=False) as engine:
            engine_spec = strengthened_verification_spec(network, setup, engine=engine)
        assert engine_spec.num_regions == spec.num_regions
        for ours, theirs in zip(engine_spec.regions, spec.regions):
            assert np.asarray(ours.region).tobytes() == np.asarray(theirs.region).tobytes()
            assert ours.constraint.a.tobytes() == theirs.constraint.a.tobytes()
