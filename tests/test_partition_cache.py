"""Tests for the partition cache (repro.syrenn.cache) as jobs and verifiers use it.

One test shares a cache between concurrent threads; the verifier tests pin
that :class:`SyrennVerifier` really serves decompositions from it — each
fails if the cache stopped serving hits. The memory and disk tiers on their
own are tested in ``tests/test_engine_cache.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.verify.exact as exact
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.syrenn.cache import PartitionCache
from repro.verify import SyrennVerifier, VerificationSpec


def payload(value: float) -> dict[str, np.ndarray]:
    return {"ratios": np.array([0.0, value, 1.0])}


class TestConcurrentJobs:
    def test_threads_share_one_cache(self, tmp_path):
        """8 threads get/put overlapping keys: bounded, and every lookup counted."""
        cache = PartitionCache(max_entries=4, directory=tmp_path)
        lookups_per_thread = 40
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def job(worker: int) -> None:
            try:
                start.wait()
                for step in range(lookups_per_thread):
                    key = ("net", f"geo{(worker + step) % 10}")
                    if cache.get(key) is None:
                        cache.put(key, payload(step / lookups_per_thread))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=job, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 4
        stats = cache.stats
        assert stats.memory.hits + stats.memory.misses == 8 * lookups_per_thread
        assert stats.hits + stats.misses == 8 * lookups_per_thread


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


@pytest.fixture
def decompositions(monkeypatch) -> dict[str, int]:
    """Count the verifier's calls into the SyReNN substrate."""
    calls = {"planes": 0, "lines": 0}
    transform_planes, transform_line = exact.transform_planes, exact.transform_line

    def counted_planes(*args, **kwargs):
        calls["planes"] += 1
        return transform_planes(*args, **kwargs)

    def counted_line(*args, **kwargs):
        calls["lines"] += 1
        return transform_line(*args, **kwargs)

    monkeypatch.setattr(exact, "transform_planes", counted_planes)
    monkeypatch.setattr(exact, "transform_line", counted_line)
    return calls


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
        assert a.activation_point.tobytes() == b.activation_point.tobytes()


class TestVerifierCache:
    def test_second_verifier_reuses_disk_partitions(
        self, plane_network, mixed_spec, tmp_path, decompositions
    ):
        """Two verifiers over one cache directory share decompositions."""
        first_cache = PartitionCache(directory=tmp_path)
        first = SyrennVerifier(cache=first_cache).verify(plane_network, mixed_spec)
        assert decompositions == {"planes": 1, "lines": 1}
        assert first_cache.stats.disk.puts == 3

        # A fresh cache over the same directory (as another process would
        # build it) hits the disk tier instead of re-decomposing.
        second_cache = PartitionCache(directory=tmp_path)
        second = SyrennVerifier(cache=second_cache).verify(plane_network, mixed_spec)
        assert decompositions == {"planes": 1, "lines": 1}
        assert second_cache.stats.disk.hits == 3
        assert second_cache.stats.misses == 0
        assert_reports_identical(first, second)

    def test_cached_second_pass_identical(
        self, plane_network, mixed_spec, tmp_path, decompositions
    ):
        cache = PartitionCache(directory=tmp_path)
        first = SyrennVerifier(cache=cache).verify(plane_network, mixed_spec)
        calls = dict(decompositions)
        # A second verifier: the first's own repeat pass would take its
        # value-only fast path and make no cache lookups at all.
        second = SyrennVerifier(cache=cache).verify(plane_network, mixed_spec)
        assert decompositions == calls  # served from the memory tier
        assert cache.stats.memory.hits == 3
        assert_reports_identical(first, second)

    def test_private_cache_serves_repeat_passes(self, plane_network, mixed_spec, decompositions):
        verifier = SyrennVerifier()
        assert verifier.cache.disk is False
        first = verifier.verify(plane_network, mixed_spec)
        # Another spec in between moves the value-only fast path's slot, so
        # the repeat pass looks its decompositions up in the cache.
        point_only = VerificationSpec()
        point_only.regions.append(mixed_spec.regions[-1])
        verifier.verify(plane_network, point_only)
        second = verifier.verify(plane_network, mixed_spec)
        assert decompositions == {"planes": 1, "lines": 1}
        assert verifier.cache.stats.memory.hits == 3
        assert_reports_identical(first, second)

    def test_foreign_payload_is_a_miss(self, plane_network, mixed_spec, tmp_path, decompositions):
        """A payload of another format under a verifier key is recomputed, not decoded."""
        writer = PartitionCache(directory=tmp_path)
        first = SyrennVerifier(cache=writer).verify(plane_network, mixed_spec)
        for path in tmp_path.iterdir():
            np.savez(path, ratios=np.array([0.0, 1.0]))
        reader = SyrennVerifier(cache=PartitionCache(directory=tmp_path))
        second = reader.verify(plane_network, mixed_spec)
        assert decompositions == {"planes": 2, "lines": 2}
        assert_reports_identical(first, second)
