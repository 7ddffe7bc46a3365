"""Tests for the SyReNN substrate (1-D and 2-D linear-region decomposition)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
import repro.syrenn.plane as plane_module
from repro.exceptions import NotPiecewiseLinearError, ShapeError
from repro.nn.activations import HardTanhLayer, LeakyReLULayer, ReLULayer
from repro.nn.layer import LayerKind
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.syrenn.plane import transform_plane, transform_planes
from repro.utils.rng import ensure_rng
from tests.conftest import make_random_relu_network, make_random_tanh_network
from tests.oracle import _plane_coordinates, oracle_transform_plane


class TestTransformLine:
    def test_toy_network_regions_match_paper(self, toy_network):
        """Equation 1 of the paper: LinRegions(N1, [-1, 2]) = {[-1,0], [0,1], [1,2]}."""
        partition = transform_line(
            toy_network, LineSegment(np.array([-1.0]), np.array([2.0]))
        )
        inputs = partition.breakpoint_inputs.ravel()
        np.testing.assert_allclose(inputs, [-1.0, 0.0, 1.0, 2.0], atol=1e-9)
        assert partition.num_regions == 3
        assert partition.num_key_points() == 6

    def test_modified_network_regions_move(self, toy_network_n2):
        """Figure 3(d): N2's middle boundary moves from 1 to 0.5."""
        partition = transform_line(
            toy_network_n2, LineSegment(np.array([-1.0]), np.array([2.0]))
        )
        inputs = partition.breakpoint_inputs.ravel()
        np.testing.assert_allclose(inputs, [-1.0, 0.0, 0.5, 2.0], atol=1e-9)

    def test_affine_segment_has_single_region(self, toy_network):
        partition = transform_line(
            toy_network, LineSegment(np.array([0.2]), np.array([0.8]))
        )
        assert partition.num_regions == 1

    def test_network_is_affine_within_each_region(self, rng):
        network = make_random_relu_network(rng, (3, 10, 8, 2))
        segment = LineSegment(rng.normal(size=3), rng.normal(size=3))
        partition = transform_line(network, segment)
        for region in partition.regions:
            left, right = region.vertices
            midpoint = 0.5 * (left + right)
            interpolated = 0.5 * (network.compute(left) + network.compute(right))
            np.testing.assert_allclose(network.compute(midpoint), interpolated, atol=1e-7)

    def test_breakpoints_are_region_boundaries(self, rng):
        network = make_random_relu_network(rng, (2, 12, 2))
        segment = LineSegment(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        partition = transform_line(network, segment)
        # At every interior breakpoint, some hidden unit's pre-activation is 0.
        hidden_layer = network.layers[0]
        for ratio in partition.ratios[1:-1]:
            point = segment.point_at(float(ratio))
            preactivations = hidden_layer.forward(point[None, :])[0]
            assert np.min(np.abs(preactivations)) < 1e-6

    def test_hardtanh_breakpoints_found(self, rng):
        network = Network(
            [
                FullyConnectedLayer(np.array([[2.0]]), np.array([0.0])),
                HardTanhLayer(1),
                FullyConnectedLayer(np.array([[1.0]]), np.array([0.0])),
            ]
        )
        partition = transform_line(network, LineSegment(np.array([-2.0]), np.array([2.0])))
        inputs = sorted(partition.breakpoint_inputs.ravel())
        np.testing.assert_allclose(inputs, [-2.0, -0.5, 0.5, 2.0], atol=1e-9)

    def test_non_pwl_network_rejected(self, random_tanh_network):
        with pytest.raises(NotPiecewiseLinearError):
            transform_line(
                random_tanh_network,
                LineSegment(np.zeros(3), np.ones(3)),
            )

    def test_region_interior_points_lie_inside(self, toy_network):
        partition = transform_line(
            toy_network, LineSegment(np.array([-1.0]), np.array([2.0]))
        )
        for region in partition.regions:
            interior = region.interior_point[0]
            low, high = region.vertices[0][0], region.vertices[1][0]
            assert low < interior < high

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_partition_covers_segment_monotonically(self, seed):
        rng = np.random.default_rng(seed)
        network = make_random_relu_network(rng, (2, 8, 6, 3))
        segment = LineSegment(rng.normal(size=2) * 2, rng.normal(size=2) * 2)
        partition = transform_line(network, segment)
        ratios = partition.ratios
        assert ratios[0] == 0.0 and ratios[-1] == 1.0
        assert np.all(np.diff(ratios) > 0)


class TestTransformPlane:
    def make_plane(self, rng, network, scale: float = 2.0) -> np.ndarray:
        """A random square embedded in the network's input space."""
        dim = network.input_size
        origin = rng.normal(size=dim)
        direction_a = rng.normal(size=dim)
        direction_b = rng.normal(size=dim)
        return np.array(
            [
                origin,
                origin + scale * direction_a,
                origin + scale * (direction_a + direction_b),
                origin + scale * direction_b,
            ]
        )

    def test_partition_area_covers_input_polygon(self, rng):
        network = make_random_relu_network(rng, (3, 8, 6, 2))
        plane = self.make_plane(rng, network)
        partition = transform_plane(network, plane)
        assert partition.num_regions >= 1
        # Compare areas in the plane's own 2-D coordinates.
        from repro.polytope.polygon import polygon_area

        total_area = polygon_area(_plane_coordinates(plane))
        region_area = sum(region.area for region in partition.regions)
        assert region_area == pytest.approx(total_area, rel=1e-3)

    def test_network_affine_within_each_region(self, rng):
        network = make_random_relu_network(rng, (3, 8, 6, 2))
        plane = self.make_plane(rng, network)
        partition = transform_plane(network, plane)
        checked = 0
        for region in partition.regions:
            if region.num_vertices < 3 or region.area < 1e-6:
                continue
            vertices = region.input_vertices
            centroid = vertices.mean(axis=0)
            interpolated = np.mean(
                [network.compute(vertex) for vertex in vertices], axis=0
            )
            np.testing.assert_allclose(network.compute(centroid), interpolated, atol=1e-6)
            checked += 1
        assert checked >= 1

    def test_affine_network_single_region(self, rng):
        network = Network([FullyConnectedLayer.from_shape(4, 3, rng)])
        plane = self.make_plane(rng, network)
        partition = transform_plane(network, plane)
        assert partition.num_regions == 1

    def test_key_point_count(self, rng):
        network = make_random_relu_network(rng, (3, 6, 2))
        plane = self.make_plane(rng, network)
        partition = transform_plane(network, plane)
        assert partition.num_key_points() == sum(
            region.num_vertices for region in partition.regions
        )

    def test_rejects_non_planar_vertex_set(self, rng):
        network = make_random_relu_network(rng, (4, 6, 2))
        vertices = rng.normal(size=(5, 4))  # generic position: not coplanar
        with pytest.raises(ShapeError):
            transform_plane(network, vertices)

    def test_rejects_wrong_dimension(self, rng):
        network = make_random_relu_network(rng, (4, 6, 2))
        with pytest.raises(ShapeError):
            transform_plane(network, rng.normal(size=(4, 3)))

    def test_rejects_non_pwl_network(self, rng):
        network = make_random_tanh_network(rng, (3, 5, 2))
        plane = self.make_plane(rng, network)
        with pytest.raises(NotPiecewiseLinearError):
            transform_plane(network, plane)

    def test_interior_points_inside_plane_bounding_box(self, rng):
        network = make_random_relu_network(rng, (3, 8, 2))
        plane = self.make_plane(rng, network)
        partition = transform_plane(network, plane)
        lower = plane.min(axis=0) - 1e-6
        upper = plane.max(axis=0) + 1e-6
        for region in partition.regions:
            interior = region.interior_point
            assert np.all(interior >= lower) and np.all(interior <= upper)


ACTIVATIONS = {
    "relu": ReLULayer,
    "leaky_relu": lambda size: LeakyReLULayer(size, negative_slope=0.1),
    "hard_tanh": HardTanhLayer,
}


def make_pwl_network(rng, sizes: tuple[int, ...], activation: str, scale: float = 1.0) -> Network:
    """A random fully-connected network with one PWL activation kind."""
    layers = []
    for index in range(len(sizes) - 1):
        layer = FullyConnectedLayer.from_shape(sizes[index], sizes[index + 1], rng)
        layer.set_parameters(scale * layer.get_parameters())
        layers.append(layer)
        if index < len(sizes) - 2:
            layers.append(ACTIVATIONS[activation](sizes[index + 1]))
    return Network(layers)


def random_convex_polygon(rng, dim: int, num_vertices: int, scale: float) -> np.ndarray:
    """``num_vertices`` points in convex position on an ellipse in a random 2-D plane."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=num_vertices))
    angles += np.arange(num_vertices) * 1e-3  # keep the vertices distinct
    axes = rng.normal(size=(2, dim))
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return rng.normal(size=dim) + scale * circle @ axes


#: log10 ranges of the polygon scales the oracle property draws from.
POLYGON_SCALES = {"unit": (-2.0, 0.0), "tiny": (-7.0, -5.0), "large": (0.5, 1.5)}


def pin_vertices_on_breakpoint(network: Network, polygons: list[np.ndarray]) -> None:
    """Make the first hidden unit sit exactly on a breakpoint at vertex 0 of each polygon.

    The unit reads input coordinate 0 alone, with the breakpoint as its
    bias, and each polygon is shifted along that axis so its first vertex
    has coordinate exactly 0: the unit's value there is the breakpoint.
    """
    first, activation = network.layers[0], network.layers[1]
    weights, biases = first.weights.copy(), first.biases.copy()
    weights[0, 1:] = 0.0
    biases[0] = activation.piecewise_breakpoints()[0]
    first.set_parameters(np.concatenate([weights.ravel(), biases]))
    for vertices in polygons:
        vertices[:, 0] -= vertices[0, 0]


def assert_partitions_identical(expected, actual) -> None:
    assert actual.num_regions == expected.num_regions
    for ours, theirs in zip(actual.regions, expected.regions):
        assert ours.input_vertices.shape == theirs.input_vertices.shape
        assert ours.input_vertices.tobytes() == theirs.input_vertices.tobytes()
        assert ours.plane_vertices.tobytes() == theirs.plane_vertices.tobytes()
        assert ours.interior_point.tobytes() == theirs.interior_point.tobytes()


class TestStackedPlaneCoordinatesProperty:
    """One stacked SVD per vertex count against one SVD per polygon, bit for bit.

    ``transform_planes`` projects every polygon of a batch onto its plane
    with one ``np.linalg.svd`` and one projection per distinct vertex count
    (``_plane_coordinates_stacked``), and takes every piece's interior point
    in one stacked ``mean`` per piece size (``_piece_centroids``).  Both
    must give the per-polygon oracle's bits, and a batch holding a polygon
    that spans more than two dimensions must raise the oracle's
    ``ShapeError``.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dim=st.integers(1, 6),
        shapes=st.lists(
            st.tuples(st.integers(3, 8), st.none() | st.integers(-14, 0)), min_size=1, max_size=12
        ),
        scale_exponent=st.integers(-4, 4),
    )
    def test_matches_per_polygon_oracle(self, seed, dim, shapes, scale_exponent):
        """Each polygon is planar, or leaves its plane by ``10**bend``: around
        the rank cut-off the two paths must still agree on which raise."""
        rng = ensure_rng(seed)
        polygons = []
        for count, bend in shapes:
            vertices = rng.normal(size=dim) + rng.normal(size=(count, 2)) @ rng.normal(size=(2, dim))
            if bend is not None:
                vertices = vertices + 10.0**bend * rng.normal(size=(count, dim))
            polygons.append(vertices * 10.0**scale_exponent)
        inputs = np.vstack(polygons)
        offsets = np.cumsum([0] + [count for count, _ in shapes])
        try:
            expected = np.vstack([_plane_coordinates(vertices) for vertices in polygons])
        except ShapeError as error:
            with pytest.raises(ShapeError, match=str(error)):
                plane_module._plane_coordinates_stacked(inputs, offsets)
            return
        actual = plane_module._plane_coordinates_stacked(inputs, offsets)
        assert actual.tobytes() == expected.tobytes()
        centroids = plane_module._piece_centroids(inputs, offsets)
        means = np.array([vertices.mean(axis=0) for vertices in polygons])
        assert centroids.tobytes() == means.tobytes()

    def test_non_planar_polygon_raises_in_any_batch_position(self):
        rng = ensure_rng(11)
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        tetra = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        network = make_random_relu_network(rng, (3, 4, 2))
        for batch in ([tetra], [square, tetra], [tetra, square, square[:3]]):
            with pytest.raises(ShapeError, match="2-D affine subspace"):
                transform_planes(network, batch)


class TestTransformPlanesOracle:
    """The ragged batch against the one-polygon-at-a-time oracle, bit for bit.

    Byte identity holds wherever each layer's forward gives every row the
    same bits at any batch height: element-wise activations always, affine
    layers under the usual BLAS kernels.  OpenBLAS switches kernels by
    problem size once a layer has 32 or more inputs, which moves last bits
    between a 4-row and a 4000-row product; the wide-layer test below pins
    what still holds there.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        activation=st.sampled_from(sorted(ACTIVATIONS)),
        depth=st.integers(1, 3),
        batch=st.integers(1, 20),
        size=st.sampled_from(sorted(POLYGON_SCALES)),
        on_breakpoint=st.booleans(),
    )
    def test_matches_oracle_byte_for_byte(
        self, seed, activation, depth, batch, size, on_breakpoint
    ):
        """Also for slivers near the degenerate-area cut-off (``tiny``),
        parents whose area sets that cut-off (``large``, area > 1) and
        vertices exactly on an activation breakpoint."""
        rng = ensure_rng(seed)
        dim = int(rng.integers(2, 6))
        sizes = (dim, *rng.integers(2, 11, size=depth).tolist(), 3)
        network = make_pwl_network(rng, sizes, activation, scale=2.0)
        low, high = POLYGON_SCALES[size]
        polygons = [
            random_convex_polygon(
                rng, dim, int(rng.integers(3, 9)), float(10 ** rng.uniform(low, high))
            )
            for _ in range(batch)
        ]
        if on_breakpoint:
            pin_vertices_on_breakpoint(network, polygons)
        partitions = transform_planes(network, polygons)
        assert len(partitions) == batch
        for vertices, partition in zip(polygons, partitions):
            assert_partitions_identical(oracle_transform_plane(network, vertices), partition)

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_splits_in_several_layers_match_oracle(self, activation, monkeypatch):
        """Pieces cut in one layer are cut again (and spliced) in later ones."""
        rng = ensure_rng(3)
        network = make_pwl_network(rng, (3, 7, 9, 11, 2), activation, scale=2.0)
        polygons = [random_convex_polygon(rng, 3, 3 + index % 6, 1.0) for index in range(6)]
        split_widths = set()
        original = plane_module._clip_coordinate

        def recording(store, *args):
            split_widths.add(store.values.shape[1])
            return original(store, *args)

        monkeypatch.setattr(plane_module, "_clip_coordinate", recording)
        partitions = transform_planes(network, polygons)
        assert split_widths == {7, 9, 11}  # every activation layer split something
        assert sum(partition.num_regions for partition in partitions) > 3 * len(polygons)
        for vertices, partition in zip(polygons, partitions):
            assert_partitions_identical(oracle_transform_plane(network, vertices), partition)

    def test_clip_passes_bounded_by_coordinates_not_pieces(self, monkeypatch):
        """At most one clip pass per (coordinate, breakpoint), for any batch size."""
        rng = ensure_rng(5)
        network = make_pwl_network(rng, (3, 8, 8, 2), "hard_tanh", scale=2.0)
        polygons = [random_convex_polygon(rng, 3, 6, 1.5) for _ in range(40)]
        passes, clipped = [], []
        original = plane_module._clip_coordinate

        def counting(store, straddles, column, threshold, pieces):
            passes.append(column)
            clipped.append(pieces.size)
            return original(store, straddles, column, threshold, pieces)

        monkeypatch.setattr(plane_module, "_clip_coordinate", counting)
        transform_planes(network, polygons)
        bound = sum(
            layer.output_size * len(layer.piecewise_breakpoints())
            for layer in network.layers
            if layer.kind is LayerKind.ACTIVATION
        )
        assert 0 < len(passes) <= bound
        # Per-piece clipping would need a pass per clipped piece.
        assert sum(clipped) > bound

    def test_sliver_at_the_cutoff_takes_the_exact_fallback(self, monkeypatch):
        """A child whose area is within rounding of the cut-off is decided exactly.

        The triangle's apex pokes ``h`` past the ReLU's zero line; the
        clipped-off sliver has area ``h**2 / (1 + h)``, which for this ``h``
        equals the cut-off ``DEGENERATE_AREA * (1 + h)`` (the parent's area)
        up to rounding.  The sliver lies far from the plane's origin, so the
        vectorized shoelace's rounding exceeds that gap: on its own it keeps
        a sliver the oracle drops.  The scalar :func:`polygon_area` must
        decide, exactly as the oracle does.
        """
        h = 1.0000009998e-6
        network = Network(
            [
                FullyConnectedLayer(np.array([[1.0, 0.0]]), np.array([0.0])),
                ReLULayer(1),
                FullyConnectedLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
            ]
        )
        triangle = np.array([[1.0, -1.0], [1.0, 1.0], [-h, 0.0]])
        areas = []
        original = plane_module.polygon_area

        def recording(points):
            areas.append(original(points))
            return areas[-1]

        monkeypatch.setattr(plane_module, "polygon_area", recording)
        partition = transform_plane(network, triangle)
        assert any(area < 1e-9 for area in areas), areas  # the sliver's fallback ran
        assert_partitions_identical(oracle_transform_plane(network, triangle), partition)

    def test_wide_layers_match_oracle_to_rounding(self):
        """With 40 inputs per layer only the last bits may move."""
        rng = ensure_rng(11)
        network = make_pwl_network(rng, (40, 40, 40, 3), "relu")
        polygons = [random_convex_polygon(rng, 40, 3 + index % 6, 1.0) for index in range(4)]
        for vertices, partition in zip(polygons, transform_planes(network, polygons)):
            expected = oracle_transform_plane(network, vertices)
            assert partition.num_regions == expected.num_regions
            for ours, theirs in zip(partition.regions, expected.regions):
                np.testing.assert_allclose(
                    ours.input_vertices, theirs.input_vertices, rtol=0, atol=1e-9
                )

    def test_empty_batch(self, rng):
        assert transform_planes(make_random_relu_network(rng, (3, 4, 2)), []) == []

    def test_any_bad_polygon_rejects_the_batch(self, rng):
        network = make_random_relu_network(rng, (3, 6, 2))
        good = random_convex_polygon(rng, 3, 4, 1.0)
        with pytest.raises(ShapeError):
            transform_planes(network, [good, rng.normal(size=(4, 2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejects_the_batch(self, rng, bad):
        network = make_random_relu_network(rng, (3, 6, 2))
        good = random_convex_polygon(rng, 3, 4, 1.0)
        broken = random_convex_polygon(rng, 3, 4, 1.0)
        broken[2, 1] = bad
        with pytest.raises(ShapeError, match="finite"):
            transform_planes(network, [good, broken])

    def test_span_and_region_counter_under_trace(self, rng):
        network = make_random_relu_network(rng, (3, 8, 2))
        polygons = [random_convex_polygon(rng, 3, 4, 2.0) for _ in range(3)]
        trace = obs.Trace("test")
        with obs.isolated(), obs.use_trace(trace):
            partitions = transform_planes(network, polygons)
            counted = obs.snapshot()
        regions = sum(partition.num_regions for partition in partitions)
        spans = [child for child in trace.root.children if child.name == "syrenn.transform_planes"]
        assert len(spans) == 1
        assert spans[0].attributes == {"polygons": 3, "regions": regions}
        assert counted["repro_syrenn_regions_total"]["series"] == [
            {"labels": {}, "value": float(regions)}
        ]
