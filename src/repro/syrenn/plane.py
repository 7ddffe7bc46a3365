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
    """

    input_vertices: np.ndarray
    plane_vertices: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.input_vertices.shape[0]

    @property
    def interior_point(self) -> np.ndarray:
        """The centroid of the region's vertices (interior for convex sets)."""
        return self.input_vertices.mean(axis=0)

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
    is row-wise independent of batch height.
    """
    _check_supported(network)
    polygons = [_validated(network, vertices) for vertices in polygons]
    with obs.span("syrenn.transform_planes", polygons=len(polygons)) as span:
        partitions = _transform_stacked(network, polygons) if polygons else []
        regions = sum(partition.num_regions for partition in partitions)
        if isinstance(span, obs.Span):
            span.attributes["regions"] = regions
        if obs.enabled():
            obs.counter(
                "repro_syrenn_regions_total",
                "Linear regions returned by the 2-D SyReNN decomposition.",
            ).inc(regions)
    return partitions


def _validated(network: Network, plane_vertices) -> np.ndarray:
    plane_vertices = np.asarray(plane_vertices, dtype=np.float64)
    if plane_vertices.ndim != 2 or plane_vertices.shape[0] < 3:
        raise ShapeError("plane_vertices must be a (k >= 3, n) array of polygon vertices")
    if plane_vertices.shape[1] != network.input_size:
        raise ShapeError(
            f"plane vertices have dimension {plane_vertices.shape[1]}, "
            f"network expects {network.input_size}"
        )
    return plane_vertices


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

    def rows(self, piece: int) -> slice:
        return slice(int(self.offsets[piece]), int(self.offsets[piece + 1]))


def _transform_stacked(network: Network, polygons: list[np.ndarray]) -> list[PlanePartition]:
    inputs = np.vstack(polygons)
    # Checked once for the whole batch, before the SVD of a polygon with a
    # NaN or infinite vertex fails with a LinAlgError.
    if not np.isfinite(inputs).all():
        raise ShapeError("plane vertices must be finite")
    store = _PieceStack(
        plane=np.vstack([_plane_coordinates(vertices) for vertices in polygons]),
        inputs=inputs,
        values=inputs,
        offsets=np.cumsum([0] + [vertices.shape[0] for vertices in polygons]),
        owner=np.arange(len(polygons)),
    )
    for layer in network.layers:
        if layer.kind is LayerKind.ACTIVATION:
            for threshold in layer.piecewise_breakpoints():
                store = _split_straddling(store, threshold)
        store.values = layer.forward(store.values)

    partitions = [PlanePartition(regions=[]) for _ in polygons]
    for piece, owner in enumerate(store.owner):
        rows = store.rows(piece)
        partitions[owner].regions.append(
            PlaneRegion(
                input_vertices=store.inputs[rows].copy(),
                plane_vertices=store.plane[rows].copy(),
            )
        )
    return partitions


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


def _ragged_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts + counts - ends, counts) + np.arange(total)


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
    rows = _ragged_range(offsets[candidates], counts[candidates])
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
    rows = _ragged_range(store.offsets[pieces], counts)
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

    plane, inputs, values = (array[sources[_ragged_range(starts, lengths)]] for array in table)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    new_straddles = np.empty((lengths.size, straddles.shape[1]), dtype=bool)
    new_straddles[~is_child] = straddles[parent[~is_child]]
    children = np.flatnonzero(is_child)
    new_straddles[children] = _straddle_matrix(
        values[_ragged_range(offsets[children], lengths[children])] - threshold,
        np.concatenate([[0], np.cumsum(lengths[children])]),
    )
    return _PieceStack(plane, inputs, values, offsets, store.owner[parent]), new_straddles


def _plane_coordinates(plane_vertices: np.ndarray) -> np.ndarray:
    """Project the polygon vertices onto an orthonormal basis of their plane."""
    origin = plane_vertices[0]
    offsets = plane_vertices - origin
    # Build an orthonormal basis of the (at most 2-D) span of the offsets.
    _, singular_values, basis = np.linalg.svd(offsets, full_matrices=False)
    rank = int(np.sum(singular_values > 1e-9))
    if rank > 2:
        raise ShapeError("plane vertices do not lie in a 2-D affine subspace")
    basis = basis[:2] if basis.shape[0] >= 2 else np.vstack([basis, np.zeros_like(basis[:1])])
    return offsets @ basis.T
