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
every live polygon of every input in one stacked store (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.exceptions import NotPiecewiseLinearError, ShapeError
from repro.nn.layer import LayerKind
from repro.nn.network import Network
from repro.polytope.polygon import VertexPolygon

#: Coordinates whose absolute value stays below this on every vertex of a
#: polygon are not split on (they are numerically on the boundary already).
SPLIT_TOLERANCE = 1e-9


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
        from repro.polytope.polygon import polygon_area

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
    Sotoudeh & Thakur, NeurIPS 2019), and only the straddling pieces go
    through the per-polygon split, spliced back in place.  Split order and
    vertex order therefore match a polygon-at-a-time decomposition; the
    float bits match too wherever each layer's forward is row-wise
    independent of batch height.
    """
    _check_supported(network)
    polygons = [_validated(network, vertices) for vertices in polygons]
    with obs.span("syrenn.transform_planes", polygons=len(polygons)) as span:
        partitions = _transform_stacked(network, polygons) if polygons else []
        if obs.enabled():
            regions = sum(partition.num_regions for partition in partitions)
            if isinstance(span, obs.Span):
                span.attributes["regions"] = regions
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
    input_dim = network.input_size
    inputs = np.vstack(polygons)
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
                store = _split_straddling(store, input_dim, threshold)
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


def _split_straddling(store: _PieceStack, input_dim: int, threshold: float) -> _PieceStack:
    """Split every piece that some value coordinate's ``threshold`` cuts.

    ``min < -tol and max > tol`` over a piece's rows is exactly the negation
    of :func:`_split_one`'s per-coordinate skip, so the pieces that pass the
    test unchanged are those ``_split_one`` would have returned as is.
    """
    shifted = store.values - threshold
    starts = store.offsets[:-1]
    low = np.minimum.reduceat(shifted, starts, axis=0)
    high = np.maximum.reduceat(shifted, starts, axis=0)
    straddling = np.flatnonzero(
        np.any((low < -SPLIT_TOLERANCE) & (high > SPLIT_TOLERANCE), axis=1)
    )
    if straddling.size == 0:
        return store

    planes, inputs, values, counts, owners = [], [], [], [], []

    def keep(first: int, stop: int) -> None:
        """Carry pieces ``first:stop`` over unchanged."""
        if stop <= first:
            return
        rows = slice(int(store.offsets[first]), int(store.offsets[stop]))
        planes.append(store.plane[rows])
        inputs.append(store.inputs[rows])
        values.append(store.values[rows])
        counts.append(np.diff(store.offsets[first : stop + 1]))
        owners.append(store.owner[first:stop])

    cursor = 0
    for piece in straddling:
        keep(cursor, piece)
        rows = store.rows(piece)
        polygon = VertexPolygon(
            store.plane[rows], np.hstack([store.inputs[rows], store.values[rows]])
        )
        for part in _split_one(polygon, input_dim, threshold):
            planes.append(part.plane_points)
            inputs.append(part.attributes[:, :input_dim])
            values.append(part.attributes[:, input_dim:])
            counts.append([part.num_vertices])
            owners.append([store.owner[piece]])
        cursor = piece + 1
    keep(cursor, len(store.owner))
    return _PieceStack(
        plane=np.vstack(planes),
        inputs=np.vstack(inputs),
        values=np.vstack(values),
        offsets=np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
        owner=np.concatenate(owners),
    )


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


def _split_one(
    polygon: VertexPolygon, input_dim: int, threshold: float
) -> list[VertexPolygon]:
    """Split one polygon on every value coordinate crossing ``threshold``."""
    pending = [polygon]
    num_values = polygon.attributes.shape[1] - input_dim
    for coordinate in range(num_values):
        next_pending: list[VertexPolygon] = []
        for piece in pending:
            function_values = piece.attributes[:, input_dim + coordinate] - threshold
            if np.all(function_values >= -SPLIT_TOLERANCE) or np.all(
                function_values <= SPLIT_TOLERANCE
            ):
                next_pending.append(piece)
                continue
            positive, negative = piece.split(function_values)
            if positive is not None:
                next_pending.append(positive)
            if negative is not None:
                next_pending.append(negative)
            if positive is None and negative is None:
                next_pending.append(piece)
        pending = next_pending
    return pending
