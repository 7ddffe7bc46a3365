"""Provable Polytope Repair — Algorithm 2 of the paper.

A polytope repair specification constrains the network's output on input
polytopes containing infinitely many points.  For piecewise-linear networks,
value-channel edits never move the linear-region boundaries (Theorem 4.6), so
within each linear region the repaired network is an affine map; an affine
map sends a polytope into a target polytope exactly when it sends the
polytope's vertices there.  The algorithm therefore:

1. decomposes every specification polytope into the linear regions of the
   network (``LinRegions``; computed by the SyReNN substrate);
2. emits one key point per (region, vertex) pair, carrying the region's
   interior point as the activation point so the key point is interpreted
   under that region's activation pattern (Appendix B);
3. calls pointwise repair (Algorithm 1) on the resulting finite
   specification.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import point_repair
from repro.core.result import RepairResult, RepairTiming
from repro.core.specs import OutputConstraint, PointRepairSpec, PolytopeRepairSpec
from repro.exceptions import NotPiecewiseLinearError, SpecificationError
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.syrenn.plane import transform_planes
from repro.syrenn.regions import LinearRegion


def polytope_repair(
    network: Network | DecoupledNetwork,
    layer_index: int,
    spec: PolytopeRepairSpec,
    *,
    norm: str = "linf",
    delta_bound: float | None = None,
) -> RepairResult:
    """Repair one layer so the network satisfies the polytope specification.

    Returns a :class:`RepairResult`; ``feasible=False`` means no single-layer
    repair of ``layer_index`` satisfies the specification.  Raises
    :class:`NotPiecewiseLinearError` if the network uses activation functions
    that are not piecewise linear (the paper's assumption for Algorithm 2).
    The result's ``timing`` is the split of this call's ``repair.polytope``
    span, whose ``repair.linregions`` child is the decomposition.
    """
    if spec.num_polytopes == 0:
        raise SpecificationError("the polytope specification has no polytopes")
    activation_network = (
        network.activation if isinstance(network, DecoupledNetwork) else network
    )
    if not activation_network.is_piecewise_linear():
        raise NotPiecewiseLinearError(
            "polytope repair requires piecewise-linear activation functions"
        )

    with obs.timed("repair.polytope", layer=layer_index) as span:
        with obs.span("repair.linregions"):
            key_points, activation_points, constraints = reduce_to_key_points(
                activation_network, spec
            )
        point_spec = PointRepairSpec(
            points=np.array(key_points),
            constraints=constraints,
            activation_points=np.array(activation_points),
        )
        result = point_repair(
            network, layer_index, point_spec, norm=norm, delta_bound=delta_bound
        )
    result.timing = RepairTiming.from_spans(span)
    return result


def region_key_points(
    vertices: np.ndarray,
    interior: np.ndarray,
    constraint: OutputConstraint,
) -> tuple[list[np.ndarray], list[np.ndarray], list[OutputConstraint]]:
    """Key-point triples of **one** linear region.

    Every vertex of the region becomes a key point interpreted under the
    region's activation pattern (pinned by ``interior``) and subject to
    ``constraint``.  This is the per-region unit of Algorithm 2's reduction:
    :func:`reduce_to_key_points` applies it to every linear region of a whole
    specification, and the counterexample pool applies it to exactly the
    violating regions the verifier pooled — producing byte-identical rows in
    both directions, which is what the driver-vs-one-shot differential tests
    pin.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    key_points = [vertices[index] for index in range(vertices.shape[0])]
    return key_points, [interior] * len(key_points), [constraint] * len(key_points)


def decompose_spec_entries(
    network: Network, regions: list[LineSegment | np.ndarray]
) -> list[list[LinearRegion]]:
    """The linear regions of every specification polytope, in order.

    Segments go through :func:`transform_line` one at a time; all planes
    share one batched :func:`transform_planes` call.
    """
    decomposed: list[list[LinearRegion] | None] = [None] * len(regions)
    planes = []
    for index, region in enumerate(regions):
        if isinstance(region, LineSegment):
            decomposed[index] = [
                LinearRegion(vertices=piece.vertices, interior=piece.interior_point)
                for piece in transform_line(network, region).regions
            ]
        else:
            planes.append(index)
    if planes:
        partitions = transform_planes(network, [regions[index] for index in planes])
        for index, partition in zip(planes, partitions):
            decomposed[index] = [
                LinearRegion(vertices=piece.input_vertices, interior=piece.interior_point)
                for piece in partition.regions
            ]
    return decomposed


def reduce_to_key_points(
    network: Network, spec: PolytopeRepairSpec
) -> tuple[list[np.ndarray], list[np.ndarray], list[OutputConstraint]]:
    """Reduce a polytope specification to (key point, activation point, constraint) triples.

    Exposed separately so experiments can report the number of key points
    (the "Points" column of Table 2) and so the FT/MFT baselines can be given
    a comparable number of sampled points.
    """
    key_points: list[np.ndarray] = []
    activation_points: list[np.ndarray] = []
    constraints: list[OutputConstraint] = []
    decomposed = decompose_spec_entries(network, [entry.region for entry in spec.entries])
    for entry, linear_regions in zip(spec.entries, decomposed):
        for region in linear_regions:
            points, activations, region_constraints = region_key_points(
                region.vertices, region.interior, entry.constraint
            )
            key_points.extend(points)
            activation_points.extend(activations)
            constraints.extend(region_constraints)
    if not key_points:
        raise SpecificationError("the polytope specification produced no key points")
    return key_points, activation_points, constraints


def count_key_points(network: Network | DecoupledNetwork, spec: PolytopeRepairSpec) -> int:
    """Number of key points Algorithm 2 will generate for this specification."""
    activation_network = (
        network.activation if isinstance(network, DecoupledNetwork) else network
    )
    key_points, _, _ = reduce_to_key_points(activation_network, spec)
    return len(key_points)
