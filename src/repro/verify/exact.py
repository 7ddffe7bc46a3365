"""The exact verifier: certification via linear-region decomposition.

Within one linear region of a piecewise-linear network, the output is an
affine function of the input, so the largest violation of an output
half-space constraint over the region is attained at one of the region's
vertices.  Decomposing a specification region into linear regions
(``transform_line``/``transform_planes`` — the SyReNN substrate) and checking
every linear region's vertices therefore either *certifies* the region or
produces a true counterexample, with nothing in between.

For Decoupled DNNs the decomposition runs on the **activation channel**
(value-channel edits never move linear-region boundaries — Theorem 4.6), and
each vertex is evaluated with the region's interior point pinned as the
activation point, because the DDNN's value channel may be discontinuous
across region boundaries.  Since the activation channel is unchanged by
repair, the decomposition of each specification region is cached across the
repeated verification rounds of a repair driver.

Every pass stacks the vertices of all linear regions of all spec regions
(each row pinned to its region's interior) and evaluates them in one
forward pass; all of a spec's uncached planes are decomposed by one batched
``transform_planes`` call.  Decompositions are cached in a
:class:`~repro.syrenn.cache.PartitionCache` keyed by ``(activation network
fingerprint, geometry digest)``: a private memory-only one by default, or
one shared with other verifiers (the repair daemon shares its disk-backed
cache across jobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.syrenn.cache import PartitionCache
from repro.syrenn.line import transform_line
from repro.syrenn.plane import transform_planes
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


class SyrennVerifier(Verifier):
    """Exact verification of line/plane regions via SyReNN decompositions.

    Boxes with at most two varying dimensions are converted to the
    equivalent point/segment/rectangle and verified exactly; boxes varying
    in three or more dimensions are beyond the 1-D/2-D SyReNN substrate and
    are reported ``UNKNOWN``.

    Decompositions go through ``cache``, a
    :class:`~repro.syrenn.cache.PartitionCache` (a runtime resource, like
    the network: pass one to share decompositions between verifiers or
    across processes through its disk tier).  Without one the verifier
    builds a private memory-only cache.

    Every pass may take the **value-only re-verification fast path**: when
    it finds the activation network's fingerprint and the spec's geometry
    digests unchanged since the previous pass, it skips decomposition (and
    even cache lookups) entirely and re-evaluates the cached vertex stack
    through the updated network in one batched forward pass.  This is sound
    exactly because value-channel repairs never move linear-region
    boundaries (Theorem 4.6); a repair driver's rounds after the first take
    it, and its reports say so in ``value_only``.

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
        cache: PartitionCache | None = None,
        region_counterexamples: bool = False,
    ) -> None:
        super().__init__(tolerance)
        self.cache = cache if cache is not None else PartitionCache(disk=False)
        self.region_counterexamples = region_counterexamples
        self.value_only_verifications = 0
        # Single-slot cache backing the value-only fast path: the previous
        # pass's decomposition plus its vertex/activation stacks, keyed by
        # (activation fingerprint, per-region geometry digests).  One slot
        # suffices: a repair driver re-verifies the same spec every round.
        self._value_only_slot: _RegionStack | None = None

    def verify(
        self, network: Network | DecoupledNetwork, spec: VerificationSpec
    ) -> VerificationReport:
        """Certify each region or return counterexamples at region vertices."""
        self._check_spec(network, spec)
        with obs.timed("verify", verifier=self.name) as span:
            activation_network = (
                network.activation if isinstance(network, DecoupledNetwork) else network
            )
            normalized = [_normalize_region(entry.region) for entry in spec.regions]
            # The fast path is gated on the *activation* network fingerprint:
            # value-channel edits (what repair applies) never move linear
            # region boundaries (Theorem 4.6), so an unchanged fingerprint
            # means the cached decomposition is exact for this network too.
            fingerprint = network_fingerprint(activation_network)
            fast_key = (
                fingerprint,
                tuple(
                    geometry_digest(region) if region is not None else None
                    for region in normalized
                ),
            )
            stack = self._value_only_slot
            value_only = stack is not None and stack.key == fast_key
            if value_only:
                self.value_only_verifications += 1
            else:
                decomposed = self._decompose_all(activation_network, fingerprint, normalized)
                stack = self._value_only_slot = _RegionStack.build(fast_key, decomposed)
            report = self._report(network, spec, stack, value_only)
        report.seconds = span.wall_seconds
        return self._publish_report(report)

    # ------------------------------------------------------------------
    # Reporting over the stacked linear regions
    # ------------------------------------------------------------------
    def _report(
        self,
        network,
        spec: VerificationSpec,
        stack: "_RegionStack",
        value_only: bool,
    ) -> VerificationReport:
        """Verdicts, margins and counterexamples from one stacked evaluation.

        All arithmetic is row-wise — one stacked forward pass, one
        ``violation_batch`` per distinct output constraint over its regions'
        gathered rows, and per-region maxima via ``np.maximum.reduceat``
        (max is exact, so the grouping cannot change any value) — and
        counterexamples come out in stack order: spec regions, then linear
        regions, then vertices.
        """
        outputs = self._evaluate_stacked(network, stack)
        margins_all = np.empty(outputs.shape[0])
        # One batched margin computation per *distinct* constraint: the
        # strengthened ACAS specs reuse a handful of output polytopes across
        # hundreds of regions, so this collapses the per-region Python loop
        # into a few large matmuls.
        groups: dict[bytes, tuple] = {}
        for region_index, entry in enumerate(spec.regions):
            span = stack.region_spans[region_index]
            if span is None or span[0] == span[1]:
                continue
            digest = entry.constraint.a.tobytes() + entry.constraint.b.tobytes()
            if digest not in groups:
                groups[digest] = (entry.constraint, [])
            groups[digest][1].append(span)
        for constraint, spans in groups.values():
            rows = np.concatenate([np.arange(s, e) for s, e in spans])
            margins_all[rows] = constraint.violation_batch(outputs[rows])

        # A region with no linear regions has nothing to violate: margin -inf
        # and certified.  ``reduceat`` has no empty slices (it would return
        # the next row's value), so only non-empty spans go through it.
        statuses: list[RegionStatus] = [RegionStatus.UNKNOWN] * spec.num_regions
        margins: list[float] = [float("-inf")] * spec.num_regions
        nonempty = []
        for region_index, span in enumerate(stack.region_spans):
            if span is None:
                continue
            statuses[region_index] = RegionStatus.CERTIFIED
            if span[0] < span[1]:
                nonempty.append(region_index)
        if nonempty:
            starts = np.array([stack.region_spans[i][0] for i in nonempty])
            region_maxes = np.maximum.reduceat(margins_all, starts)
            for position, region_index in enumerate(nonempty):
                margin = float(region_maxes[position])
                margins[region_index] = margin
                if margin > self.tolerance:
                    statuses[region_index] = RegionStatus.VIOLATED

        counterexamples: list[Counterexample] = []
        if self.region_counterexamples:
            # One counterexample per violating *linear region*: its rows are
            # the contiguous spans of the row → interior mapping.
            for span_start, span_stop in contiguous_spans(stack.row_interior):
                span_margins = margins_all[span_start:span_stop]
                worst = int(np.argmax(span_margins))
                if span_margins[worst] <= self.tolerance:
                    continue
                region_index = int(stack.row_region[span_start])
                counterexamples.append(
                    RegionCounterexample(
                        point=stack.vertices[span_start + worst].copy(),
                        constraint=spec.regions[region_index].constraint,
                        margin=float(span_margins[worst]),
                        region_index=region_index,
                        activation_point=stack.interiors[
                            stack.row_interior[span_start]
                        ].copy(),
                        vertices=stack.vertices[span_start:span_stop].copy(),
                    )
                )
        else:
            for row in np.where(margins_all > self.tolerance)[0]:
                region_index = int(stack.row_region[row])
                counterexamples.append(
                    Counterexample(
                        point=stack.vertices[row].copy(),
                        constraint=spec.regions[region_index].constraint,
                        margin=float(margins_all[row]),
                        region_index=region_index,
                        activation_point=stack.interiors[stack.row_interior[row]].copy(),
                    )
                )
        return VerificationReport(
            verifier=self.name,
            region_statuses=statuses,
            region_margins=margins,
            counterexamples=counterexamples,
            points_checked=int(stack.vertices.shape[0]),
            linear_regions_checked=len(stack.interiors),
            value_only=value_only,
        )

    # ------------------------------------------------------------------
    def _evaluate_stacked(self, network, stack: "_RegionStack") -> np.ndarray:
        """Outputs for every stacked vertex, with per-row pinned activations."""
        if stack.vertices.shape[0] == 0:
            return np.zeros((0, network.output_size))
        if isinstance(network, DecoupledNetwork):
            return np.atleast_2d(network.compute(stack.vertices, stack.activations))
        return np.atleast_2d(network.compute(stack.vertices))

    def _decompose_all(
        self, activation_network: Network, fingerprint: str, normalized: list
    ) -> list[list[LinearRegion] | None]:
        """Linear regions per normalized spec region (``None`` for 3D+ boxes).

        Every uncached plane region goes through one batched
        :func:`transform_planes` call; segments and single points are
        decomposed one at a time.  ``fingerprint`` is the activation
        network's, the first half of every cache key.
        """
        decomposed: list[list[LinearRegion] | None] = [None] * len(normalized)
        keys: dict[int, tuple] = {}
        planes: dict = {}
        for index, region in enumerate(normalized):
            if region is None:
                continue
            if not isinstance(region, LineSegment) and region.ndim == 1:
                # A fully degenerate box: a single point is its own linear region.
                decomposed[index] = [LinearRegion(vertices=region[None, :], interior=region)]
                continue
            key = keys[index] = (fingerprint, geometry_digest(region))
            cached = self._lookup(key)
            if cached is not None:
                decomposed[index] = cached
            elif isinstance(region, LineSegment):
                pieces = transform_line(activation_network, region).regions
                decomposed[index] = self._remember(
                    key, [LinearRegion(piece.vertices, piece.interior_point) for piece in pieces]
                )
            else:
                # Equal geometries in one spec decompose once.
                planes.setdefault(key, []).append(index)
        groups = list(planes.values())
        if groups:
            partitions = transform_planes(
                activation_network, [normalized[group[0]] for group in groups]
            )
            for group, partition in zip(groups, partitions):
                linear_regions = self._remember(
                    keys[group[0]],
                    [LinearRegion(piece.input_vertices, piece.interior_point) for piece in partition.regions],
                )
                for index in group:
                    decomposed[index] = linear_regions
        return decomposed

    def _lookup(self, key: tuple) -> list[LinearRegion] | None:
        payload = self.cache.get(key)
        # A payload this verifier did not write (another format sharing the
        # directory) is a miss: the fresh decomposition replaces it in memory.
        if payload is None or "num_regions" not in payload:
            return None
        return [
            LinearRegion(payload[f"vertices_{index}"], payload[f"interior_{index}"])
            for index in range(int(payload["num_regions"]))
        ]

    def _remember(self, key: tuple, linear_regions: list[LinearRegion]) -> list[LinearRegion]:
        payload = {"num_regions": len(linear_regions)}
        for index, region in enumerate(linear_regions):
            payload[f"vertices_{index}"] = region.vertices
            payload[f"interior_{index}"] = region.interior
        self.cache.put(key, payload)
        return linear_regions


def contiguous_spans(ids) -> list[tuple[int, int]]:
    """``(start, stop)`` spans of equal consecutive values in ``ids``.

    Recovers the grouping already present in a stacked result: which rows
    of a vertex stack belong to the same linear region.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return []
    boundaries = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [ids.size]])
    return list(zip(starts.tolist(), stops.tolist()))


@dataclass
class _RegionStack:
    """A spec's linear regions stacked row-wise for one batched evaluation.

    Rows follow spec regions in order, linear regions in order, vertices in
    order, so batched results map back by row index.  ``row_region`` /
    ``row_interior`` resolve a row to its spec region and its linear
    region's interior point; unsupported (3D+ box) regions have a ``None``
    span and contribute no rows.  The value-only fast path keeps the last
    stack, keyed by ``key``.
    """

    key: tuple
    vertices: np.ndarray
    activations: np.ndarray
    region_spans: list[tuple[int, int] | None]
    row_region: np.ndarray
    row_interior: np.ndarray
    interiors: list[np.ndarray]

    @classmethod
    def build(cls, key: tuple, decomposed: list) -> "_RegionStack":
        region_spans: list[tuple[int, int] | None] = []
        flat: list[LinearRegion] = []
        owners: list[int] = []
        cursor = 0
        for region_index, linear_regions in enumerate(decomposed):
            if linear_regions is None:
                region_spans.append(None)
                continue
            span_start = cursor
            for linear_region in linear_regions:
                flat.append(linear_region)
                owners.append(region_index)
                cursor += linear_region.vertices.shape[0]
            region_spans.append((span_start, cursor))
        interiors = [linear_region.interior for linear_region in flat]
        if flat:
            counts = np.array([linear_region.vertices.shape[0] for linear_region in flat])
            vertices = np.vstack([linear_region.vertices for linear_region in flat])
            activations = np.repeat(np.array(interiors), counts, axis=0)
        else:
            counts = np.zeros(0, dtype=int)
            vertices = np.zeros((0, 0))
            activations = np.zeros((0, 0))
        return cls(
            key=key,
            vertices=vertices,
            activations=activations,
            region_spans=region_spans,
            row_region=np.repeat(np.array(owners, dtype=int), counts),
            row_interior=np.repeat(np.arange(len(flat)), counts),
            interiors=interiors,
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
