"""Tests for the convex-geometry substrate (segments, polygons, H-polytopes).

The per-polygon half-plane clip (``clip_by_function``, ``VertexPolygon``)
is the reference the batched SyReNN clip is checked against; it lives in
``tests/oracle.py`` and is pinned here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ShapeError, SpecificationError
from repro.polytope.hpolytope import HPolytope
from repro.polytope.polygon import convex_hull, polygon_area
from repro.polytope.segment import LineSegment
from tests.oracle import CLIP_TOLERANCE, VertexPolygon, clip_by_function, split_by_function


class TestLineSegment:
    def test_point_at_endpoints(self):
        segment = LineSegment([0.0, 0.0], [2.0, 4.0])
        np.testing.assert_allclose(segment.point_at(0.0), [0.0, 0.0])
        np.testing.assert_allclose(segment.point_at(1.0), [2.0, 4.0])
        np.testing.assert_allclose(segment.midpoint(), [1.0, 2.0])

    def test_points_at_batch(self):
        segment = LineSegment([0.0], [1.0])
        points = segment.points_at(np.array([0.0, 0.25, 1.0]))
        np.testing.assert_allclose(points.ravel(), [0.0, 0.25, 1.0])

    def test_points_at_rejects_matrix(self):
        with pytest.raises(ShapeError):
            LineSegment([0.0], [1.0]).points_at(np.zeros((2, 2)))

    def test_length_and_direction(self):
        segment = LineSegment([0.0, 0.0], [3.0, 4.0])
        assert segment.length == pytest.approx(5.0)
        np.testing.assert_allclose(segment.direction, [3.0, 4.0])
        assert segment.dimension == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LineSegment([0.0], [1.0, 2.0])

    def test_sample_stays_on_segment(self, rng):
        segment = LineSegment([0.0, 1.0], [2.0, 3.0])
        samples = segment.sample(50, rng)
        # Every sample must satisfy the segment's parametric equation.
        ts = (samples[:, 0] - 0.0) / 2.0
        np.testing.assert_allclose(samples[:, 1], 1.0 + 2.0 * ts, atol=1e-12)
        assert np.all(ts >= 0.0) and np.all(ts <= 1.0)


class TestPolygonPrimitives:
    def test_polygon_area_square(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert polygon_area(square) == pytest.approx(1.0)

    def test_polygon_area_degenerate(self):
        assert polygon_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_polygon_area_requires_2d(self):
        with pytest.raises(ShapeError):
            polygon_area(np.zeros((3, 3)))

    def test_convex_hull_of_square_with_interior_point(self):
        points = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
        hull = convex_hull(points)
        assert hull.shape[0] == 4
        assert polygon_area(hull) == pytest.approx(1.0)

    def test_convex_hull_collinear(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        hull = convex_hull(points)
        assert hull.shape[0] <= 3

    def test_clip_square_by_halfplane(self):
        square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        # Keep x <= 1, i.e. the function 1 - x >= 0.
        values = 1.0 - square[:, 0]
        clipped = clip_by_function(square, values, keep_positive=True)
        assert polygon_area(clipped[:, :2]) == pytest.approx(2.0)

    def test_split_preserves_total_area(self):
        square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        values = square[:, 0] - 0.75
        positive, negative = split_by_function(square, values)
        total = polygon_area(positive[:, :2]) + polygon_area(negative[:, :2])
        assert total == pytest.approx(4.0)

    def test_clip_no_overlap_returns_empty(self):
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        values = np.full(3, -1.0)
        clipped = clip_by_function(triangle, values, keep_positive=True)
        assert clipped.shape[0] == 0

    def test_clip_requires_matching_values(self):
        with pytest.raises(ShapeError):
            clip_by_function(np.zeros((3, 2)), np.zeros(2), keep_positive=True)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        offset=st.floats(-0.9, 0.9),
    )
    def test_split_area_conservation_property(self, seed, offset):
        rng = np.random.default_rng(seed)
        # A random convex polygon (hull of random points in the unit square).
        hull = convex_hull(rng.uniform(0.0, 1.0, size=(8, 2)))
        if hull.shape[0] < 3:
            return
        values = hull[:, 0] - (0.5 + offset / 2.0)
        positive, negative = split_by_function(hull, values)
        total = 0.0
        for part in (positive, negative):
            if part.shape[0] >= 3:
                total += polygon_area(part[:, :2])
        assert total == pytest.approx(polygon_area(hull), rel=1e-6, abs=1e-9)


class TestVertexPolygon:
    def make_square(self) -> VertexPolygon:
        plane = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        attributes = np.hstack([plane, plane.sum(axis=1, keepdims=True)])
        return VertexPolygon(plane, attributes)

    def test_properties(self):
        polygon = self.make_square()
        assert polygon.num_vertices == 4
        assert polygon.area == pytest.approx(4.0)
        assert not polygon.is_degenerate()
        np.testing.assert_allclose(polygon.centroid_plane_point(), [1.0, 1.0])
        np.testing.assert_allclose(polygon.centroid_attributes(), [1.0, 1.0, 2.0])

    def test_split_interpolates_attributes(self):
        polygon = self.make_square()
        # Split on the function x - 1 (affine in the plane coordinates).
        function_values = polygon.plane_points[:, 0] - 1.0
        positive, negative = polygon.split(function_values)
        assert positive is not None and negative is not None
        assert positive.area + negative.area == pytest.approx(4.0)
        # The attribute column that stored x + y must remain equal to x + y
        # at the newly created crossing vertices.
        for part in (positive, negative):
            np.testing.assert_allclose(
                part.attributes[:, 2], part.attributes[:, 0] + part.attributes[:, 1], atol=1e-9
            )

    def test_split_entirely_on_one_side(self):
        polygon = self.make_square()
        positive, negative = polygon.split(np.full(4, 1.0))
        assert positive is not None and negative is None

    def test_degenerate_split_dropped(self):
        polygon = self.make_square()
        # A function that is zero on one edge and positive elsewhere produces
        # a degenerate "negative" piece which must be dropped.
        function_values = polygon.plane_points[:, 0]
        positive, negative = polygon.split(function_values)
        assert positive is not None
        assert negative is None

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            VertexPolygon(np.zeros((3, 3)), np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            VertexPolygon(np.zeros((3, 2)), np.zeros((2, 1)))


class TestHPolytope:
    def test_interval_contains(self):
        box = HPolytope.from_interval(2, 0, -1.0, 1.0)
        assert box.contains(np.array([0.5, 100.0]))
        assert not box.contains(np.array([2.0, 0.0]))

    def test_interval_validation(self):
        with pytest.raises(SpecificationError):
            HPolytope.from_interval(2, 5, 0.0, 1.0)
        with pytest.raises(SpecificationError):
            HPolytope.from_interval(2, 0, 1.0, 0.0)

    def test_argmax_region(self):
        region = HPolytope.argmax_region(3, winner=1, margin=0.1)
        assert region.num_constraints == 2
        assert region.contains(np.array([0.0, 1.0, 0.5]))
        assert not region.contains(np.array([1.0, 0.5, 0.0]))
        # Margin makes near-ties fail.
        assert not region.contains(np.array([0.95, 1.0, 0.0]))

    def test_argmax_region_validation(self):
        with pytest.raises(SpecificationError):
            HPolytope.argmax_region(3, winner=3)
        with pytest.raises(SpecificationError):
            HPolytope.argmax_region(3, winner=0, margin=-1.0)

    def test_violation_measure(self):
        box = HPolytope.from_interval(1, 0, 0.0, 1.0)
        assert box.violation(np.array([2.0])) == pytest.approx(1.0)
        assert box.violation(np.array([0.5])) <= 0.0

    def test_contains_batch_matches_scalar(self, rng):
        region = HPolytope.argmax_region(4, winner=2, margin=0.05)
        points = rng.normal(size=(50, 4))
        mask = region.contains_batch(points)
        assert mask.shape == (50,)
        for point, flag in zip(points, mask):
            assert flag == region.contains(point)

    def test_violation_batch_matches_scalar(self, rng):
        box = HPolytope.from_interval(3, 1, -0.5, 0.5)
        points = rng.normal(size=(40, 3))
        margins = box.violation_batch(points)
        for point, margin in zip(points, margins):
            assert margin == pytest.approx(box.violation(point))

    def test_batch_shape_validation(self):
        box = HPolytope.from_interval(2, 0, 0.0, 1.0)
        with pytest.raises(ShapeError):
            box.contains_batch(np.zeros((3, 5)))
        with pytest.raises(ShapeError):
            box.violation_batch(np.zeros((3, 5)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), winner=st.integers(0, 4))
    def test_argmax_region_matches_argmax(self, seed, winner):
        rng = np.random.default_rng(seed)
        region = HPolytope.argmax_region(5, winner)
        outputs = rng.normal(size=5)
        assert region.contains(outputs, tolerance=0.0) == (int(np.argmax(outputs)) == winner) or (
            # Ties are the only disagreement allowed.
            np.sum(outputs == outputs.max()) > 1
        )


def _reference_clip(vertices, function_values, keep_positive):
    """The pre-vectorization per-vertex clipping loop, kept as an oracle."""
    vertices = np.asarray(vertices, dtype=np.float64)
    values = np.asarray(function_values, dtype=np.float64)
    if not keep_positive:
        values = -values
    kept_rows = []
    count = vertices.shape[0]
    for index in range(count):
        current, nxt = vertices[index], vertices[(index + 1) % count]
        current_value, next_value = values[index], values[(index + 1) % count]
        if current_value >= -CLIP_TOLERANCE:
            kept_rows.append(current)
        crosses = (current_value > CLIP_TOLERANCE and next_value < -CLIP_TOLERANCE) or (
            current_value < -CLIP_TOLERANCE and next_value > CLIP_TOLERANCE
        )
        if crosses:
            ratio = current_value / (current_value - next_value)
            kept_rows.append(current + ratio * (nxt - current))
    if not kept_rows:
        return np.zeros((0, vertices.shape[1]))
    return np.array(kept_rows)


class TestVectorizedClipping:
    """The vectorized edge walk must match the reference loop bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), keep_positive=st.booleans())
    def test_matches_reference_loop(self, seed, keep_positive):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(3, 9))
        vertices = rng.normal(size=(count, 4))
        values = rng.normal(size=count)
        # Exercise on-boundary vertices too.
        values[rng.random(count) < 0.2] = 0.0
        fast = clip_by_function(vertices, values, keep_positive)
        slow = _reference_clip(vertices, values, keep_positive)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()

    def test_all_inside_and_all_outside(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        inside = clip_by_function(square, np.ones(4), keep_positive=True)
        np.testing.assert_array_equal(inside, square)
        outside = clip_by_function(square, np.ones(4), keep_positive=False)
        assert outside.shape == (0, 2)

    def test_empty_input(self):
        empty = clip_by_function(np.zeros((0, 2)), np.zeros(0), keep_positive=True)
        assert empty.shape == (0, 2)
