"""2-D SyReNN: linear-region decomposition of a planar polygon.

The input region is a convex planar polygon embedded in the network's input
space (e.g. a 2-D slice of the ACAS Xu input space).  The algorithm keeps a
set of convex polygons; each polygon's vertices carry both their input-space
coordinates and the corresponding values at the current layer.  Affine layers
update the values.  Each element-wise piecewise-linear activation splits
every polygon by the zero set of ``value[k] - threshold`` for every
coordinate ``k`` and every activation breakpoint; within a polygon the value
is an affine function of the plane coordinates, so the zero set is a line and
half-plane clipping with linear interpolation is exact.  After processing all
layers the surviving polygons are exactly ``LinRegions(N, P)``.

:func:`transform_planes` runs this for a batch of polygons at once, with
every live polygon of every input in one stacked store, and clips all the
pieces one coordinate cuts in a single vectorized pass (see its
docstring).  Degenerate pieces are dropped by an area test whose
vectorized shoelace hands the cases within its rounding error of the
cut-off to the scalar :func:`~repro.polytope.polygon.polygon_area`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.exceptions import NotPiecewiseLinearError, ShapeError
from repro.nn.layer import LayerKind
from repro.nn.network import Network
from repro.polytope.polygon import polygon_area
from repro.syrenn.regions import ragged_range

#: Coordinates whose absolute value stays below this on every vertex of a
#: polygon are not split on (they are numerically on the boundary already).
SPLIT_TOLERANCE = 1e-9

#: Pieces a split leaves with an area at most this times ``max(parent area,
#: 1)`` (or fewer than three vertices) are discarded.
DEGENERATE_AREA = 1e-12


@dataclass
class PlaneRegion:
    """One linear region of the network restricted to the input plane.

    Attributes
    ----------
    input_vertices:
        ``(k, n)`` array of the region's vertices in input space.
    plane_vertices:
        ``(k, 2)`` array of the same vertices in the plane's 2-D coordinate
        system (used for plotting and area computations).
    interior_point:
        The centroid of the region's vertices (interior for convex sets),
        ``input_vertices.mean(axis=0)``.

    :func:`transform_planes` hands out read-only views of arrays it stacked
    for the whole batch.
    """

    input_vertices: np.ndarray
    plane_vertices: np.ndarray
    interior_point: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.input_vertices.shape[0]

    @property
    def area(self) -> float:
        """Area in plane coordinates."""
        return polygon_area(self.plane_vertices)


@dataclass
class PlanePartition:
    """The full decomposition of an input plane polygon into linear regions."""

    regions: list[PlaneRegion]

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def num_key_points(self) -> int:
        """Number of (vertex, region) key points generated for repair."""
        return sum(region.num_vertices for region in self.regions)


def _check_supported(network: Network) -> None:
    for layer in network.layers:
        if layer.kind is not LayerKind.ACTIVATION:
            continue
        if not layer.is_piecewise_linear:
            raise NotPiecewiseLinearError(
                f"{type(layer).__name__} is not piecewise linear; polytope repair "
                "requires PWL activation functions (paper §6)"
            )
        try:
            layer.piecewise_breakpoints()
        except Exception as error:  # pragma: no cover - defensive
            raise NotPiecewiseLinearError(
                f"{type(layer).__name__} does not expose element-wise breakpoints; "
                "the 2-D SyReNN substrate only supports element-wise PWL activations"
            ) from error


def transform_plane(network: Network, plane_vertices: np.ndarray) -> PlanePartition:
    """Compute ``LinRegions(network, polygon)`` for a convex planar polygon.

    ``plane_vertices`` is a ``(k, n)`` array of input-space points that are
    the ordered vertices of a convex polygon lying inside a 2-D affine
    subspace of the input space.  This is :func:`transform_planes` on a
    batch of one.
    """
    return transform_planes(network, [plane_vertices])[0]


def transform_planes(network: Network, polygons: list[np.ndarray]) -> list[PlanePartition]:
    """``LinRegions(network, polygon)`` for every polygon of a batch, in order.

    The per-region view of :func:`transform_plane_batch`: one
    :class:`PlanePartition` per polygon, one :class:`PlaneRegion` per piece.
    """
    return transform_plane_batch(network, polygons).partitions()


def transform_plane_batch(network: Network, polygons: list[np.ndarray]) -> PlaneBatch:
    """``LinRegions(network, polygon)`` for every polygon of a batch, as one stack.

    Every live piece of every polygon sits in one ragged store (stacked
    vertex rows, CSR ``offsets``, an ``owner`` index back to the input
    polygon), so each layer runs **one** ``forward`` over the whole batch.
    At each activation breakpoint a piece whose vertices all lie on one side
    of every coordinate's threshold cannot be cut (SyReNN's vertex test:
    Sotoudeh & Thakur, NeurIPS 2019); for each coordinate that some piece
    straddles, one :func:`_clip_coordinate` pass clips every straddling
    piece and splices the children back in place.  Split order, vertex
    order and every keep/drop decision therefore match a polygon-at-a-time
    decomposition; the float bits match too wherever each layer's forward
    is row-wise independent of batch height.  The final store comes back
    as it is, a :class:`PlaneBatch`.
    """
    _check_supported(network)
    polygons = _validated(network, polygons)
    with obs.span("syrenn.transform_planes", polygons=len(polygons)) as span:
        batch = _transform_stacked(network, polygons)
        regions = batch.num_regions
        if isinstance(span, obs.Span):
            span.attributes["regions"] = regions
        if obs.enabled():
            obs.counter(
                "repro_syrenn_regions_total",
                "Linear regions returned by the 2-D SyReNN decomposition.",
            ).inc(regions)
    return batch


def _validated(network: Network, polygons) -> list[np.ndarray]:
    polygons = [np.asarray(vertices, dtype=np.float64) for vertices in polygons]
    dimension = network.input_size
    for vertices in polygons:
        shape = vertices.shape
        if len(shape) != 2 or shape[0] < 3:
            raise ShapeError("plane_vertices must be a (k >= 3, n) array of polygon vertices")
        if shape[1] != dimension:
            raise ShapeError(
                f"plane vertices have dimension {shape[1]}, network expects {dimension}"
            )
    return polygons


@dataclass(frozen=True, eq=False)
class PlaneBatch:
    """The linear regions of a batch of polygons, stacked row-wise.

    Piece (linear region) ``p`` owns rows ``offsets[p]:offsets[p + 1]`` of
    ``inputs`` (input-space vertices) and ``plane`` (the same vertices in
    its polygon's 2-D plane coordinates), has the vertex centroid
    ``interiors[p]`` and belongs to input polygon ``owner[p]``.  Polygon
    ``q`` owns the contiguous pieces
    ``polygon_offsets[q]:polygon_offsets[q + 1]``, in split order.  Every
    array is read-only.
    """

    inputs: np.ndarray
    plane: np.ndarray
    offsets: np.ndarray
    owner: np.ndarray
    interiors: np.ndarray
    polygon_offsets: np.ndarray

    @property
    def num_regions(self) -> int:
        return self.owner.size

    def parts(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every polygon's ``(vertices, offsets, interiors)``, in order.

        Read-only views of the stack, with each polygon's CSR ``offsets``
        counted from its own first row.
        """
        pieces = self.polygon_offsets
        counts = np.diff(pieces)
        # Each polygon's slice of ``offsets`` (its end included), rebased.
        index = ragged_range(pieces[:-1], counts + 1)
        local = self.offsets[index] - np.repeat(self.offsets[pieces[:-1]], counts + 1)
        local.flags.writeable = False
        inputs, interiors = self.inputs, self.interiors
        rows, pieces = self.offsets[pieces].tolist(), pieces.tolist()
        return [
            (inputs[start:stop], local[first + polygon : last + polygon + 1], interiors[first:last])
            for polygon, (start, stop, first, last) in enumerate(zip(rows, rows[1:], pieces, pieces[1:]))
        ]

    def partitions(self) -> list[PlanePartition]:
        """One :class:`PlanePartition` per polygon, of views of the stack."""
        partitions = [PlanePartition(regions=[]) for _ in range(self.polygon_offsets.size - 1)]
        bounds = self.offsets.tolist()
        for piece, owner in enumerate(self.owner.tolist()):
            start, stop = bounds[piece], bounds[piece + 1]
            partitions[owner].regions.append(
                PlaneRegion(
                    input_vertices=self.inputs[start:stop],
                    plane_vertices=self.plane[start:stop],
                    interior_point=self.interiors[piece],
                )
            )
        return partitions


@dataclass
class _PieceStack:
    """Every live piece of a batch of polygons, stacked row-wise.

    Piece ``p`` owns rows ``offsets[p]:offsets[p + 1]`` of ``plane`` (2-D
    plane coordinates), ``inputs`` (input-space points) and ``values``
    (current-layer values), and belongs to input polygon ``owner[p]``.
    Pieces of one polygon are contiguous and in split order.
    """

    plane: np.ndarray
    inputs: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    owner: np.ndarray


def _transform_stacked(network: Network, polygons: list[np.ndarray]) -> PlaneBatch:
    dimension = network.input_size
    inputs = np.concatenate(polygons) if polygons else np.zeros((0, dimension))
    # Checked once for the whole batch, before the SVD of a polygon with a
    # NaN or infinite vertex fails with a LinAlgError.
    if not np.isfinite(inputs).all():
        raise ShapeError("plane vertices must be finite")
    offsets = np.cumsum([0] + [vertices.shape[0] for vertices in polygons])
    store = _PieceStack(
        plane=_plane_coordinates_stacked(inputs, offsets),
        inputs=inputs,
        values=inputs,
        offsets=offsets,
        owner=np.arange(len(polygons)),
    )
    if polygons:
        for layer in network.layers:
            if layer.kind is LayerKind.ACTIVATION:
                for threshold in layer.piecewise_breakpoints():
                    store = _split_straddling(store, threshold)
            store.values = layer.forward(store.values)

    # Pieces stay in polygon order, so ``owner`` is sorted.
    polygon_offsets = np.searchsorted(store.owner, np.arange(len(polygons) + 1))
    batch = PlaneBatch(
        inputs=store.inputs,
        plane=store.plane,
        offsets=store.offsets,
        owner=store.owner,
        interiors=_piece_centroids(store.inputs, store.offsets),
        polygon_offsets=polygon_offsets,
    )
    # The arrays are the final store's, which nothing else holds.
    for array in vars(batch).values():
        array.flags.writeable = False
    return batch


def _count_groups(offsets: np.ndarray):
    """Group pieces by size: ``(rows, members)`` for each distinct size ``k``.

    ``members`` are the pieces with ``k`` rows (CSR ``offsets``), in order,
    and ``rows`` is the ``(len(members), k)`` array of their row indices.
    """
    counts = np.diff(offsets)
    for count in np.unique(counts).tolist():
        members = np.flatnonzero(counts == count)
        yield offsets[members][:, None] + np.arange(count), members


def _plane_coordinates_stacked(inputs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each polygon's vertices in an orthonormal basis of its plane, stacked.

    Polygon ``p`` owns rows ``offsets[p]:offsets[p + 1]`` of ``inputs``.
    The basis is the leading right singular vectors of the vertices' offsets
    from the polygon's first vertex.  Polygons with equal vertex counts
    share one stacked ``np.linalg.svd`` and one stacked projection; both run
    the same LAPACK/BLAS call on each polygon as a polygon-at-a-time
    projection, so every bit matches it.
    """
    plane = np.empty((inputs.shape[0], 2))
    for rows, _ in _count_groups(offsets):
        vertices = inputs[rows]
        relative = vertices - vertices[:, :1]
        # Build an orthonormal basis of the (at most 2-D) span of the offsets.
        _, singular_values, basis = np.linalg.svd(relative, full_matrices=False)
        if np.any(np.sum(singular_values > 1e-9, axis=1) > 2):
            raise ShapeError("plane vertices do not lie in a 2-D affine subspace")
        if basis.shape[1] >= 2:
            basis = basis[:, :2]
        else:
            basis = np.concatenate([basis, np.zeros_like(basis[:, :1])], axis=1)
        plane[rows.ravel()] = (relative @ basis.transpose(0, 2, 1)).reshape(-1, 2)
    return plane


def _piece_centroids(inputs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Every piece's vertex mean, one stacked ``mean`` per distinct piece size.

    Bit-identical to each piece's own ``mean(axis=0)``.
    """
    centroids = np.empty((offsets.size - 1, inputs.shape[1]))
    for rows, members in _count_groups(offsets):
        centroids[members] = inputs[rows].mean(axis=1)
    return centroids


def _split_straddling(store: _PieceStack, threshold: float) -> _PieceStack:
    """Cut every piece on every value coordinate that crosses ``threshold``.

    Coordinates are taken in order.  At each one, every piece that
    straddles it (``min < -tol and max > tol`` over its vertices) is
    clipped in one :func:`_clip_coordinate` pass over the whole store, and
    a coordinate no piece straddles costs nothing.  A pass replaces each
    piece by its children in place, so the piece order is the one a
    piece-at-a-time split on each coordinate in turn produces.
    """
    straddles = _straddle_matrix(store.values - threshold, store.offsets)
    for column in range(store.values.shape[1]):
        pieces = np.flatnonzero(straddles[:, column])
        if pieces.size:
            store, straddles = _clip_coordinate(store, straddles, column, threshold, pieces)
    return store


def _straddle_matrix(shifted: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``(pieces, coordinates)``: which coordinates each piece's vertices straddle."""
    starts = offsets[:-1]
    low = np.minimum.reduceat(shifted, starts, axis=0)
    high = np.maximum.reduceat(shifted, starts, axis=0)
    return (low < -SPLIT_TOLERANCE) & (high > SPLIT_TOLERANCE)


def _following(offsets: np.ndarray) -> np.ndarray:
    """Each row's next vertex within its piece, wrapping around (CSR ``offsets``)."""
    following = np.arange(1, int(offsets[-1]) + 1)
    following[offsets[1:] - 1] = offsets[:-1]
    return following


def _shoelace(plane: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every piece's area, and a bound on its distance from :func:`polygon_area`.

    The two compute the same shoelace sum in different orders.  Any order
    lands within ``(k + 2) u S`` of the exact sum, where ``k`` is the vertex
    count, ``u`` the unit roundoff and ``S`` the sum of the terms'
    magnitudes; the bound covers both sums with a factor of two to spare.
    """
    following = _following(offsets)
    x, y = plane[:, 0], plane[:, 1]
    forward, backward = x * y[following], x[following] * y
    starts = offsets[:-1]
    area = np.abs(np.add.reduceat(forward - backward, starts)) / 2.0
    magnitude = np.add.reduceat(np.abs(forward) + np.abs(backward), starts)
    bound = 2.0 * (np.diff(offsets) + 2) * np.finfo(np.float64).eps * (magnitude + area)
    return area, bound


def _reference_areas(plane: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``max(area, 1)`` of every piece, bit-exact where the area may reach 1."""
    area, bound = _shoelace(plane, offsets)
    reference = np.ones(area.size)
    for piece in np.flatnonzero(area + bound >= 1.0):
        reference[piece] = max(polygon_area(plane[offsets[piece] : offsets[piece + 1]]), 1.0)
    return reference


def _nondegenerate(plane: np.ndarray, offsets: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Which pieces have three vertices and area above ``DEGENERATE_AREA * reference``.

    The vectorized shoelace decides wherever its area is clearly above or
    below the cut-off.  Within its error bound of it, the area is
    recomputed with the scalar :func:`polygon_area`, so every decision is
    the one a polygon-at-a-time clip makes.
    """
    counts = np.diff(offsets)
    keep = counts >= 3
    candidates = np.flatnonzero(keep)
    if candidates.size == 0:
        return keep
    rows = ragged_range(offsets[candidates], counts[candidates])
    area, bound = _shoelace(plane[rows], np.concatenate([[0], np.cumsum(counts[candidates])]))
    cutoff = DEGENERATE_AREA * reference[candidates]
    keep[candidates] = area > cutoff
    for index in np.flatnonzero(np.abs(area - cutoff) <= bound):
        piece = candidates[index]
        area_exact = polygon_area(plane[offsets[piece] : offsets[piece + 1]])
        keep[piece] = area_exact > cutoff[index]
    return keep


def _clip_coordinate(
    store: _PieceStack,
    straddles: np.ndarray,
    column: int,
    threshold: float,
    pieces: np.ndarray,
) -> tuple[_PieceStack, np.ndarray]:
    """Split each of ``pieces`` by the zero set of ``values[:, column] - threshold``.

    One pass over the ragged rows of every such piece.  Each edge gives its
    start vertex to the side(s) it lies on and, when it crosses the zero
    set, its crossing point to both.  The crossing point is the half-plane
    clipping formula ``v + f / (f - f_next) * (v_next - v)`` on every
    column, computed once: negating ``f`` is exact, so the ``<= 0`` side's
    ratio has the same bits.  A piece is replaced in place by
    ``[positive, negative]`` without its degenerate children, and stays
    whole if both are degenerate.  Returns the new store and its
    :func:`_straddle_matrix` rows.
    """
    counts = np.diff(store.offsets)[pieces]
    rows = ragged_range(store.offsets[pieces], counts)
    local = np.concatenate([[0], np.cumsum(counts)])
    following = _following(local)
    value = store.values[rows, column] - threshold
    next_value = value[following]
    crosses = ((value > SPLIT_TOLERANCE) & (next_value < -SPLIT_TOLERANCE)) | (
        (value < -SPLIT_TOLERANCE) & (next_value > SPLIT_TOLERANCE)
    )
    edges = np.flatnonzero(crosses)
    ratios = (value[edges] / (value[edges] - next_value[edges]))[:, None]
    start_rows, end_rows = rows[edges], rows[following[edges]]

    def with_crossings(array: np.ndarray) -> np.ndarray:
        start = array[start_rows]
        return np.concatenate([array, start + ratios * (array[end_rows] - start)])

    # Table rows: the store's rows, then the crossing points.  A slot pair
    # per edge, [start vertex, crossing], read in row-major order walks
    # each piece's edges in order.
    table = [with_crossings(array) for array in (store.plane, store.inputs, store.values)]
    stored = store.plane.shape[0]
    slots = np.zeros((rows.size, 2), dtype=np.int64)
    slots[:, 0] = rows
    slots[edges, 1] = stored + np.arange(edges.size)

    def side(inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Table rows and CSR offsets of every piece's child on one side."""
        chosen = np.stack([inside, crosses], axis=1)
        sizes = np.add.reduceat(chosen.sum(axis=1), local[:-1])
        return slots[chosen], np.concatenate([[0], np.cumsum(sizes)])

    positive, positive_offsets = side(value >= -SPLIT_TOLERANCE)
    negative, negative_offsets = side(value <= SPLIT_TOLERANCE)
    reference = _reference_areas(store.plane[rows], local)
    keep_positive = _nondegenerate(table[0][positive], positive_offsets, reference)
    keep_negative = _nondegenerate(table[0][negative], negative_offsets, reference)

    # Each piece becomes [itself, positive child, negative child] with the
    # absent ones at length 0, as ranges of ``sources``.
    sources = np.concatenate([np.arange(stored), positive, negative])
    num_pieces = store.owner.size
    starts = np.zeros((num_pieces, 3), dtype=np.int64)
    lengths = np.zeros((num_pieces, 3), dtype=np.int64)
    starts[:, 0], lengths[:, 0] = store.offsets[:-1], np.diff(store.offsets)
    lengths[pieces, 0] = np.where(keep_positive | keep_negative, 0, counts)
    starts[pieces, 1] = stored + positive_offsets[:-1]
    lengths[pieces, 1] = np.where(keep_positive, np.diff(positive_offsets), 0)
    starts[pieces, 2] = stored + positive.size + negative_offsets[:-1]
    lengths[pieces, 2] = np.where(keep_negative, np.diff(negative_offsets), 0)
    present = lengths.ravel() > 0
    starts, lengths = starts.ravel()[present], lengths.ravel()[present]
    parent = np.repeat(np.arange(num_pieces), 3)[present]
    is_child = np.tile([False, True, True], num_pieces)[present]

    plane, inputs, values = (array[sources[ragged_range(starts, lengths)]] for array in table)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    new_straddles = np.empty((lengths.size, straddles.shape[1]), dtype=bool)
    new_straddles[~is_child] = straddles[parent[~is_child]]
    children = np.flatnonzero(is_child)
    new_straddles[children] = _straddle_matrix(
        values[ragged_range(offsets[children], lengths[children])] - threshold,
        np.concatenate([[0], np.cumsum(lengths[children])]),
    )
    return _PieceStack(plane, inputs, values, offsets, store.owner[parent]), new_straddles
