"""The exact verifier: certification via linear-region decomposition.

Within one linear region of a piecewise-linear network, the output is an
affine function of the input, so the largest violation of an output
half-space constraint over the region is attained at one of the region's
vertices.  Decomposing a specification region into linear regions
(``transform_line``/``transform_plane`` — the SyReNN substrate) and checking
every linear region's vertices therefore either *certifies* the region or
produces a true counterexample, with nothing in between.

For Decoupled DNNs the decomposition runs on the **activation channel**
(value-channel edits never move linear-region boundaries — Theorem 4.6), and
each vertex is evaluated with the region's interior point pinned as the
activation point, because the DDNN's value channel may be discontinuous
across region boundaries.  Since the activation channel is unchanged by
repair, the decomposition of each specification region is cached across the
repeated verification rounds of a repair driver.

Decomposition can also be delegated to a
:class:`repro.engine.ShardedSyrennEngine`: all of a spec's regions are
decomposed in one batched engine call (sharded, parallel across worker
processes, and cached in the engine's two-tier partition cache).  The
engine's merge order is deterministic, so an engine-backed verification at
any worker count is byte-identical to the serial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.engine.jobs import contiguous_spans
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.syrenn.line import transform_line
from repro.syrenn.plane import transform_plane
from repro.syrenn.regions import LinearRegion, geometry_digest
from repro.utils.serialization import network_fingerprint
from repro.verify.base import (
    DEFAULT_TOLERANCE,
    Box,
    Counterexample,
    RegionCounterexample,
    RegionStatus,
    VerificationReport,
    VerificationSpec,
    Verifier,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine import Engine


class SyrennVerifier(Verifier):
    """Exact verification of line/plane regions via SyReNN decompositions.

    Boxes with at most two varying dimensions are converted to the
    equivalent point/segment/rectangle and verified exactly; boxes varying
    in three or more dimensions are beyond the 1-D/2-D SyReNN substrate and
    are reported ``UNKNOWN``.

    With an ``engine``, region decomposition runs as one batched engine
    call and the engine's partition cache replaces the verifier's private
    in-memory cache; ``cache_partitions=False`` bypasses the engine cache
    for this verifier's calls without clearing it for other consumers.

    ``value_only=True`` enables the **value-only re-verification fast
    path**: when a pass finds the activation network's fingerprint and the
    spec's geometry digests unchanged since the previous pass, it skips
    decomposition (and even cache lookups) entirely and re-evaluates the
    cached vertex stack through the updated network — as one in-process
    batched forward pass, or as a chunked ``evaluate_regions`` engine job
    when an engine is attached.  This is sound exactly because value-channel
    repairs never move linear-region boundaries (Theorem 4.6); the
    repair driver enables the flag for the duration of its run.

    ``region_counterexamples=True`` switches counterexample granularity from
    vertices to linear regions: each violating linear region is reported as
    one :class:`~repro.verify.base.RegionCounterexample` carrying the
    region's full vertex set and interior point instead of one
    :class:`Counterexample` per violating vertex.  Verdicts, margins, and
    ordering are unchanged; the polytope-mode repair driver enables the flag
    for the duration of its run so pooled counterexamples expand to exactly
    the key points Algorithm 2 would generate for the violated regions.
    """

    name = "syrenn"

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        cache_partitions: bool = True,
        engine: Engine | None = None,
        value_only: bool = False,
        region_counterexamples: bool = False,
    ) -> None:
        super().__init__(tolerance)
        self.cache_partitions = cache_partitions
        self.engine = engine
        self.value_only = value_only
        self.region_counterexamples = region_counterexamples
        self.value_only_verifications = 0
        self._cache: dict[tuple, list[LinearRegion]] = {}
        # Single-slot cache backing the value-only fast path: the previous
        # pass's decomposition plus its vertex/activation stacks, keyed by
        # (activation fingerprint, per-region geometry digests).  One slot
        # suffices: a repair driver re-verifies the same spec every round.
        self._value_only_slot: tuple | None = None

    def verify(
        self, network: Network | DecoupledNetwork, spec: VerificationSpec
    ) -> VerificationReport:
        """Certify each region or return counterexamples at region vertices."""
        self._check_spec(network, spec)
        start = time.perf_counter()
        activation_network = (
            network.activation if isinstance(network, DecoupledNetwork) else network
        )
        normalized = [_normalize_region(entry.region) for entry in spec.regions]

        fast_key = None
        if self.value_only:
            # The fast path is gated on the *activation* network fingerprint:
            # value-channel edits (what repair applies) never move linear
            # region boundaries (Theorem 4.6), so an unchanged fingerprint
            # means the cached decomposition is exact for this network too.
            fast_key = (
                network_fingerprint(activation_network),
                tuple(
                    geometry_digest(region) if region is not None else None
                    for region in normalized
                ),
            )
            slot = self._value_only_slot
            if slot is not None and slot.key == fast_key:
                self.value_only_verifications += 1
                return self._verify_value_only(network, spec, slot, start)
        decomposed = self._decompose_all(activation_network, normalized)
        if fast_key is not None:
            self._value_only_slot = _ValueOnlyCache.build(fast_key, decomposed)

        statuses: list[RegionStatus] = []
        margins: list[float] = []
        counterexamples: list[Counterexample] = []
        points_checked = 0
        linear_regions_checked = 0
        for region_index, entry in enumerate(spec.regions):
            linear_regions = decomposed[region_index]
            if linear_regions is None:  # a box the 1-D/2-D substrate cannot decompose
                statuses.append(RegionStatus.UNKNOWN)
                margins.append(float("-inf"))
                continue
            linear_regions_checked += len(linear_regions)
            region_margin = float("-inf")
            region_violated = False
            # Vertex checks stay in-process even with an engine: each linear
            # region is a micro-batch of 2-8 points whose forward pass is far
            # cheaper than shipping it to a worker, and decomposition — not
            # evaluation — dominates exact-verification wall-clock.
            for linear_region in linear_regions:
                points_checked += linear_region.vertices.shape[0]
                outputs = self._evaluate(network, linear_region.vertices, linear_region.interior)
                vertex_margins = entry.constraint.violation_batch(outputs)
                region_margin = max(region_margin, float(np.max(vertex_margins)))
                violating = np.where(vertex_margins > self.tolerance)[0]
                if violating.size == 0:
                    continue
                region_violated = True
                if self.region_counterexamples:
                    worst = int(np.argmax(vertex_margins))
                    counterexamples.append(
                        RegionCounterexample(
                            point=linear_region.vertices[worst].copy(),
                            constraint=entry.constraint,
                            margin=float(vertex_margins[worst]),
                            region_index=region_index,
                            activation_point=linear_region.interior.copy(),
                            vertices=linear_region.vertices.copy(),
                        )
                    )
                    continue
                for vertex_index in violating:
                    counterexamples.append(
                        Counterexample(
                            point=linear_region.vertices[vertex_index].copy(),
                            constraint=entry.constraint,
                            margin=float(vertex_margins[vertex_index]),
                            region_index=region_index,
                            activation_point=linear_region.interior.copy(),
                        )
                    )
            statuses.append(
                RegionStatus.VIOLATED if region_violated else RegionStatus.CERTIFIED
            )
            margins.append(region_margin)
        return self._publish_report(
            VerificationReport(
                verifier=self.name,
                region_statuses=statuses,
                region_margins=margins,
                counterexamples=counterexamples,
                points_checked=points_checked,
                linear_regions_checked=linear_regions_checked,
                seconds=time.perf_counter() - start,
            )
        )

    # ------------------------------------------------------------------
    # The value-only fast path
    # ------------------------------------------------------------------
    def _verify_value_only(
        self, network, spec: VerificationSpec, cache: "_ValueOnlyCache", start: float
    ) -> VerificationReport:
        """Re-verify from cached decomposition with batched evaluation.

        Produces byte-identical verdicts, margins, and counterexamples (in
        identical order) to the slow path: all arithmetic is row-wise — one
        stacked forward pass, one ``violation_batch`` per distinct output
        constraint over its regions' gathered rows, and per-region maxima
        via ``np.maximum.reduceat`` (max is exact, so the grouping cannot
        change any value).
        """
        outputs = self._evaluate_stacked(network, cache.vertices, cache.activations)
        margins_all = np.empty(outputs.shape[0])
        # One batched margin computation per *distinct* constraint: the
        # strengthened ACAS specs reuse a handful of output polytopes across
        # hundreds of regions, so this collapses the per-region Python loop
        # into a few large matmuls.
        groups: dict[bytes, tuple] = {}
        for region_index, entry in enumerate(spec.regions):
            span = cache.region_spans[region_index]
            if span is None:
                continue
            digest = entry.constraint.a.tobytes() + entry.constraint.b.tobytes()
            if digest not in groups:
                groups[digest] = (entry.constraint, [])
            groups[digest][1].append(span)
        for constraint, spans in groups.values():
            rows = np.concatenate([np.arange(s, e) for s, e in spans])
            margins_all[rows] = constraint.violation_batch(outputs[rows])

        supported = [i for i, span in enumerate(cache.region_spans) if span is not None]
        statuses: list[RegionStatus] = [RegionStatus.UNKNOWN] * spec.num_regions
        margins: list[float] = [float("-inf")] * spec.num_regions
        if supported:
            starts = np.array([cache.region_spans[i][0] for i in supported])
            region_maxes = np.maximum.reduceat(margins_all, starts)
            for position, region_index in enumerate(supported):
                margin = float(region_maxes[position])
                margins[region_index] = margin
                statuses[region_index] = (
                    RegionStatus.VIOLATED if margin > self.tolerance else RegionStatus.CERTIFIED
                )

        counterexamples: list[Counterexample] = []
        if self.region_counterexamples:
            # One counterexample per violating *linear region*: rows of a
            # linear region are contiguous in the cached stack (they were
            # built region by region), so the per-region grouping is exactly
            # the contiguous spans of the row → interior mapping — the same
            # regions, in the same order, as the slow path walks.
            for span_start, span_stop in contiguous_spans(cache.row_interior):
                span_margins = margins_all[span_start:span_stop]
                worst = int(np.argmax(span_margins))
                if span_margins[worst] <= self.tolerance:
                    continue
                region_index = int(cache.row_region[span_start])
                counterexamples.append(
                    RegionCounterexample(
                        point=cache.vertices[span_start + worst].copy(),
                        constraint=spec.regions[region_index].constraint,
                        margin=float(span_margins[worst]),
                        region_index=region_index,
                        activation_point=cache.interiors[
                            cache.row_interior[span_start]
                        ].copy(),
                        vertices=cache.vertices[span_start:span_stop].copy(),
                    )
                )
        else:
            for row in np.where(margins_all > self.tolerance)[0]:
                region_index = int(cache.row_region[row])
                counterexamples.append(
                    Counterexample(
                        point=cache.vertices[row].copy(),
                        constraint=spec.regions[region_index].constraint,
                        margin=float(margins_all[row]),
                        region_index=region_index,
                        activation_point=cache.interiors[cache.row_interior[row]].copy(),
                    )
                )
        return self._publish_report(
            VerificationReport(
                verifier=self.name,
                region_statuses=statuses,
                region_margins=margins,
                counterexamples=counterexamples,
                points_checked=int(cache.vertices.shape[0]),
                linear_regions_checked=cache.total_linear_regions,
                seconds=time.perf_counter() - start,
                value_only=True,
            )
        )

    # ------------------------------------------------------------------
    def _evaluate_stacked(
        self, network, vertex_stack: np.ndarray, activation_stack: np.ndarray
    ) -> np.ndarray:
        """Outputs for every cached vertex, with per-row pinned activations.

        With an engine the stack runs as one batched ``evaluate_regions``
        job (chunked across the worker pool); without one it is a single
        in-process batched forward pass — either way replacing the
        per-linear-region evaluation loop of the slow path.
        """
        if vertex_stack.shape[0] == 0:
            return np.zeros((0, network.output_size))
        if self.engine is not None:
            return self.engine.evaluate_regions(network, vertex_stack, activation_stack)
        if isinstance(network, DecoupledNetwork):
            return np.atleast_2d(network.compute(vertex_stack, activation_stack))
        return np.atleast_2d(network.compute(vertex_stack))

    def _decompose_all(
        self, activation_network: Network, normalized: list
    ) -> list[list[LinearRegion] | None]:
        """Linear regions per normalized spec region (``None`` for 3D+ boxes)."""
        supported = [index for index, region in enumerate(normalized) if region is not None]
        decomposed: list[list[LinearRegion] | None] = [None] * len(normalized)
        if self.engine is not None:
            results = self.engine.decompose(
                activation_network,
                [normalized[index] for index in supported],
                use_cache=self.cache_partitions,
            )
            for index, linear_regions in zip(supported, results):
                decomposed[index] = linear_regions
            return decomposed
        fingerprint = network_fingerprint(activation_network) if self.cache_partitions else None
        for index in supported:
            region = normalized[index]
            decomposed[index] = self._decompose(
                activation_network, region, (geometry_digest(region), fingerprint)
            )
        return decomposed

    def _decompose(
        self, activation_network: Network, region, cache_key: tuple
    ) -> list[LinearRegion]:
        if self.cache_partitions and cache_key in self._cache:
            return self._cache[cache_key]
        if isinstance(region, LineSegment):
            partition = transform_line(activation_network, region)
            linear_regions = [
                LinearRegion(vertices=piece.vertices, interior=piece.interior_point)
                for piece in partition.regions
            ]
        elif isinstance(region, np.ndarray) and region.ndim == 1:
            # A fully degenerate box: a single point is its own linear region.
            linear_regions = [LinearRegion(vertices=region[None, :], interior=region)]
        else:
            partition = transform_plane(activation_network, region)
            linear_regions = [
                LinearRegion(vertices=piece.input_vertices, interior=piece.interior_point)
                for piece in partition.regions
            ]
        if self.cache_partitions:
            self._cache[cache_key] = linear_regions
        return linear_regions


@dataclass
class _ValueOnlyCache:
    """Everything the value-only fast path needs from a decomposition.

    Rows follow the slow path's iteration order (spec regions in order,
    linear regions in order, vertices in order), so batched results map back
    by row index.  ``row_region``/``row_interior`` resolve a violating row to
    its spec region and its linear region's interior point; unsupported
    (3D+ box) regions have a ``None`` span and contribute no rows.
    """

    key: tuple
    vertices: np.ndarray
    activations: np.ndarray
    region_spans: list[tuple[int, int] | None]
    row_region: np.ndarray
    row_interior: np.ndarray
    interiors: list[np.ndarray]
    total_linear_regions: int

    @classmethod
    def build(cls, key: tuple, decomposed: list) -> "_ValueOnlyCache":
        vertices: list[np.ndarray] = []
        activations: list[np.ndarray] = []
        region_spans: list[tuple[int, int] | None] = []
        row_region: list[int] = []
        row_interior: list[int] = []
        interiors: list[np.ndarray] = []
        total_linear_regions = 0
        cursor = 0
        for region_index, linear_regions in enumerate(decomposed):
            if linear_regions is None:
                region_spans.append(None)
                continue
            total_linear_regions += len(linear_regions)
            span_start = cursor
            for linear_region in linear_regions:
                count = linear_region.vertices.shape[0]
                vertices.append(linear_region.vertices)
                activations.append(
                    np.broadcast_to(linear_region.interior, linear_region.vertices.shape)
                )
                row_region.extend([region_index] * count)
                row_interior.extend([len(interiors)] * count)
                interiors.append(linear_region.interior)
                cursor += count
            region_spans.append((span_start, cursor))
        if vertices:
            vertex_stack = np.vstack(vertices)
            activation_stack = np.ascontiguousarray(np.vstack(activations))
        else:
            vertex_stack = np.zeros((0, 0))
            activation_stack = np.zeros((0, 0))
        return cls(
            key=key,
            vertices=vertex_stack,
            activations=activation_stack,
            region_spans=region_spans,
            row_region=np.array(row_region, dtype=int),
            row_interior=np.array(row_interior, dtype=int),
            interiors=interiors,
            total_linear_regions=total_linear_regions,
        )


def _normalize_region(region) -> LineSegment | np.ndarray | None:
    """Map a spec region onto what the SyReNN substrate can decompose.

    Returns a :class:`LineSegment`, a plane-vertex array, a single point
    (1-D array, for fully degenerate boxes), or ``None`` when the region is
    a box varying in three or more dimensions.
    """
    if isinstance(region, LineSegment):
        return region
    if isinstance(region, Box):
        varying = region.varying_dimensions()
        if varying.size == 0:
            return region.lower.copy()
        if varying.size == 1:
            end = region.lower.copy()
            end[varying[0]] = region.upper[varying[0]]
            return LineSegment(region.lower, end)
        if varying.size == 2:
            corners = []
            for corner in ((0, 0), (1, 0), (1, 1), (0, 1)):
                point = region.lower.copy()
                for position, dim in enumerate(varying):
                    point[dim] = region.upper[dim] if corner[position] else region.lower[dim]
                corners.append(point)
            return np.array(corners)
        return None
    return np.atleast_2d(np.asarray(region, dtype=np.float64))
