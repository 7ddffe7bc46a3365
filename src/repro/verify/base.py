"""The verification interface: specs, counterexamples, and reports.

The repair algorithms assume someone already knows *where* the network is
wrong — the specification is handed to them fully formed.  This module is
the other half of the loop: a :class:`VerificationSpec` names input regions
and the output polytope each must map into, and a :class:`Verifier` searches
those regions for violations, returning structured
:class:`Counterexample` objects and a :class:`VerificationReport` that
accounts for every region as *certified*, *violated*, or *unknown*.

Three verifiers implement the interface (each in its own module):

* :class:`repro.verify.sampling.GridVerifier` — dense deterministic sweep;
  finds violations, never certifies.
* :class:`repro.verify.sampling.RandomVerifier` — seeded Monte-Carlo with
  per-point margin tracking; finds violations, never certifies.
* :class:`repro.verify.exact.SyrennVerifier` — exact over line/plane regions
  by decomposing them into linear regions (the SyReNN substrate) and
  checking each region's vertices; certifies or produces true
  counterexamples.
"""

from __future__ import annotations

import abc
import enum
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.specs import PolytopeRepairSpec, checked_plane_vertices
from repro.exceptions import SpecificationError
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.syrenn.regions import geometry_digest

#: A sampled output violates its constraint when the margin exceeds this.
DEFAULT_TOLERANCE = 1e-7


class RegionStatus(enum.Enum):
    """Verification verdict for one specification region."""

    CERTIFIED = "certified"  #: proven free of violations (exact verifiers only)
    VIOLATED = "violated"    #: at least one concrete counterexample found
    UNKNOWN = "unknown"      #: no violation found, but nothing proven


def frozen_array(array, what: str) -> np.ndarray:
    """``array`` as a finite, read-only float64 array.

    An array this function returned before comes back at once.  An array
    that is already read-only all the way down its ``base`` chain is
    returned as is; anything else is copied first, so freezing never
    changes an array its caller may still write to.  Non-finite entries
    raise :class:`SpecificationError`: a NaN bound or vertex makes every
    margin NaN, and ``NaN > tolerance`` is false, so a verifier would
    certify the region.
    """
    array = np.asarray(array, dtype=np.float64)
    if _FROZEN.get(id(array)) is array:
        return array
    if not np.isfinite(array).all():
        raise SpecificationError(f"{what} must be finite")
    base = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            array = array.copy()
            array.flags.writeable = False
            break
        base = base.base
    _FROZEN[id(array)] = array
    return array


#: The arrays :func:`frozen_array` returned, by ``id``: checked, and
#: immutable, so a region built again from them (a repair spec's regions
#: adopted as verification targets) skips the check.  An entry leaves with
#: its array.
_FROZEN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Box:
    """An axis-aligned input box ``{x : lower ≤ x ≤ upper}`` (dims may be degenerate).

    The bounds are finite and read-only (:func:`frozen_array`).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = frozen_array(np.asarray(self.lower, dtype=np.float64).ravel(), "box lower bound")
        if self.upper is self.lower:
            # A single-point box given as one array (as a pointwise spec's
            # regions are) is checked and frozen once.
            upper = lower
        else:
            upper = frozen_array(np.asarray(self.upper, dtype=np.float64).ravel(), "box upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.lower.shape != self.upper.shape:
            raise SpecificationError("box lower and upper bounds must have the same shape")
        if np.any(self.lower > self.upper):
            raise SpecificationError("box lower bound exceeds upper bound")

    @property
    def dimension(self) -> int:
        """Dimension of the ambient input space."""
        return self.lower.size

    def varying_dimensions(self, tolerance: float = 1e-12) -> np.ndarray:
        """Indices of dimensions with non-degenerate extent."""
        return np.where(self.upper - self.lower > tolerance)[0]


#: An input region is a segment, a convex planar polygon (vertex array), or a box.
InputRegion = LineSegment | np.ndarray | Box


@dataclass(frozen=True, eq=False)
class SpecRegion:
    """One input region paired with the output constraint it must map into.

    Immutable: the fields cannot be reassigned, and every array the region
    and its constraint hold is finite and read-only (:func:`frozen_array`),
    so a write raises.  That is what lets each region compute what the
    verifiers need of it — its normalized geometry, input dimension,
    geometry digest, constraint key and single-point flag — lazily, once,
    and keep it: a repair driver re-verifies the same regions every round.
    To change a spec, replace its list entry with a new ``SpecRegion``.
    """

    region: InputRegion
    constraint: HPolytope
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", _frozen_region(self.region))
        object.__setattr__(self, "constraint", frozen_constraint(self.constraint))

    @cached_property
    def normalized(self) -> LineSegment | np.ndarray | None:
        """The region as the SyReNN substrate decomposes it (:func:`_normalize_region`)."""
        return _normalize_region(self.region)

    @cached_property
    def dimension(self) -> int:
        """Dimension of the input space the region lives in."""
        return _region_dimension(self.region)

    @cached_property
    def digest(self) -> str | None:
        """:func:`geometry_digest` of the normalized region (``None`` for 3D+ boxes)."""
        normalized = self.normalized
        return None if normalized is None else geometry_digest(normalized)

    @cached_property
    def constraint_key(self) -> bytes:
        """The constraint's bytes: regions with equal keys share one constraint."""
        return self.constraint.a.tobytes() + self.constraint.b.tobytes()

    @cached_property
    def is_point(self) -> bool:
        """Whether the region is a single point (a box with no varying dimension).

        A sampling verifier's sweep of such a region evaluates the region
        itself, so with ``certify_exhaustive`` a clean sweep certifies it.
        """
        return isinstance(self.region, Box) and self.region.varying_dimensions().size == 0


@dataclass
class VerificationSpec:
    """Finitely many input regions, each with an output polytope to satisfy."""

    regions: list[SpecRegion] = field(default_factory=list)

    @property
    def num_regions(self) -> int:
        """Number of regions in the specification."""
        return len(self.regions)

    def add_segment(self, segment: LineSegment, constraint: HPolytope, name: str = "") -> None:
        """Require every point of ``segment`` to map into ``constraint``."""
        self.regions.append(SpecRegion(segment, constraint, name))

    def add_plane(self, vertices, constraint: HPolytope, name: str = "") -> None:
        """Require every point of the convex planar polygon to map into ``constraint``.

        Exact duplicate vertices are dropped, mirroring
        :meth:`repro.core.specs.PolytopeRepairSpec.add_plane`, so a
        verification spec and the repair spec it was built from decompose
        the same geometry (and share partition-cache entries).
        """
        self.regions.append(SpecRegion(checked_plane_vertices(vertices), constraint, name))

    def add_box(self, lower, upper, constraint: HPolytope, name: str = "") -> None:
        """Require every point of the axis-aligned box to map into ``constraint``."""
        self.regions.append(SpecRegion(Box(lower, upper), constraint, name))

    @classmethod
    def from_polytope_spec(cls, spec: PolytopeRepairSpec) -> "VerificationSpec":
        """Adopt the regions of a repair specification as verification targets."""
        verification = cls()
        for entry in spec.entries:
            verification.regions.append(SpecRegion(entry.region, entry.constraint))
        return verification

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """The spec as a JSON-ready dictionary (the job daemon's wire format).

        Round-trips exactly: arrays are emitted as nested lists of Python
        floats, whose ``repr`` serialization recovers the identical float64
        bit patterns, so a spec that travelled through JSON decomposes — and
        repairs — byte-identically to the original.
        """
        return {"regions": [_region_entry_dict(entry) for entry in self.regions]}

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationSpec":
        """Rebuild a spec from :meth:`as_dict` output (or hand-written JSON)."""
        if not isinstance(payload, dict) or "regions" not in payload:
            raise SpecificationError('a spec payload needs a "regions" list')
        spec = cls()
        for index, entry in enumerate(payload["regions"]):
            try:
                spec.regions.append(_region_entry_from_dict(entry))
            except (KeyError, TypeError, ValueError) as error:
                raise SpecificationError(
                    f"malformed spec region {index}: {error}"
                ) from error
        return spec

    def __post_init__(self) -> None:
        if not isinstance(self.regions, list):
            raise SpecificationError("regions must be a list of SpecRegion entries")


@dataclass
class Counterexample:
    """A concrete input on which the network violates its region's constraint.

    Attributes
    ----------
    point:
        The violating input.
    constraint:
        The output polytope the network was supposed to map ``point`` into.
    margin:
        The largest constraint violation at ``point`` (strictly positive).
    region_index:
        Index of the specification region the point came from.
    activation_point:
        For counterexamples produced by the exact verifier: an interior
        point of the linear region the violating vertex belongs to.  Feeding
        it to the DDNN's activation channel pins the vertex to that region's
        activation pattern (Appendix B of the paper), which is what makes
        repairing the vertex equivalent to repairing the whole region.
    """

    point: np.ndarray
    constraint: HPolytope
    margin: float
    region_index: int
    activation_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Coerce to float64 like VerificationSpec does for its bounds: a
        # sampling verifier sweeping a float32 dataset must not leak float32
        # into LP assembly or into the counterexample pool's dedup keys
        # (float32 and float64 bytes of the same value never collide).
        self.point = np.ascontiguousarray(np.asarray(self.point, dtype=np.float64))
        if self.activation_point is not None:
            self.activation_point = np.ascontiguousarray(
                np.asarray(self.activation_point, dtype=np.float64)
            )
        self.margin = float(self.margin)

    def resolved_activation_point(self) -> np.ndarray:
        """The activation point, defaulting to the point itself."""
        return self.point if self.activation_point is None else self.activation_point

    def key_points(self) -> np.ndarray:
        """The repair points this counterexample expands to (``(k, n)``).

        A plain counterexample is its own single key point; a
        :class:`RegionCounterexample` expands to every vertex of its linear
        region (Algorithm 2's per-region reduction).
        """
        return self.point[None, :]


@dataclass
class RegionCounterexample(Counterexample):
    """A whole violating *linear region*, as produced in polytope-CEGIS mode.

    Where a plain :class:`Counterexample` names one violating vertex, a
    region counterexample carries the full vertex set of the linear region
    it came from, with the region's interior point as the (mandatory)
    activation point.  Repairing all of its :meth:`key_points` under that
    pinned activation pattern repairs the *entire* region (Theorem 4.6 +
    Appendix B) — which is what lets the CEGIS driver certify infinite
    polytope specifications rather than individual points.

    ``point``/``margin`` describe the worst-violating vertex, so the pool's
    margin accounting and the driver's reporting work unchanged.
    """

    vertices: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.vertices is None:
            raise SpecificationError("a region counterexample needs its region's vertices")
        if self.activation_point is None:
            raise SpecificationError(
                "a region counterexample needs an interior (activation) point"
            )
        self.vertices = np.ascontiguousarray(
            np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        )

    def key_points(self) -> np.ndarray:
        """Every vertex of the violating linear region."""
        return self.vertices


@dataclass
class VerificationReport:
    """Outcome of one verification pass over a specification.

    ``region_statuses[i]`` is the verdict for ``spec.regions[i]``;
    ``region_margins[i]`` is the largest constraint margin observed on that
    region (≤ 0 everywhere the verifier looked means no violation seen).
    """

    verifier: str
    region_statuses: list[RegionStatus]
    region_margins: list[float]
    counterexamples: list[Counterexample] = field(default_factory=list)
    points_checked: int = 0
    linear_regions_checked: int = 0
    seconds: float = 0.0
    #: Whether this pass took the value-only fast path: the activation
    #: network was unchanged since the last pass, so cached linear-region
    #: vertex sets were re-evaluated without any decomposition work.
    value_only: bool = False

    @property
    def num_regions(self) -> int:
        """Number of specification regions covered by this report."""
        return len(self.region_statuses)

    @property
    def num_certified(self) -> int:
        """Regions proven free of violations."""
        return sum(status is RegionStatus.CERTIFIED for status in self.region_statuses)

    @property
    def num_violated(self) -> int:
        """Regions with at least one concrete counterexample."""
        return sum(status is RegionStatus.VIOLATED for status in self.region_statuses)

    @property
    def num_unknown(self) -> int:
        """Regions with no violation found but no proof either."""
        return sum(status is RegionStatus.UNKNOWN for status in self.region_statuses)

    @property
    def certified(self) -> bool:
        """Whether *every* region was proven free of violations."""
        return self.num_regions > 0 and self.num_certified == self.num_regions

    @property
    def clean(self) -> bool:
        """Whether no region was found violated (weaker than :attr:`certified`)."""
        return self.num_violated == 0

    @property
    def max_margin(self) -> float:
        """Largest margin observed across all regions (-inf for an empty report)."""
        return max(self.region_margins, default=float("-inf"))

    def as_dict(self) -> dict:
        """A JSON-ready summary (statuses and counts, not the raw points)."""
        return {
            "verifier": self.verifier,
            "num_regions": self.num_regions,
            "num_certified": self.num_certified,
            "num_violated": self.num_violated,
            "num_unknown": self.num_unknown,
            "certified": self.certified,
            "num_counterexamples": len(self.counterexamples),
            "points_checked": self.points_checked,
            "linear_regions_checked": self.linear_regions_checked,
            "max_margin": self.max_margin,
            "seconds": self.seconds,
            "value_only": self.value_only,
        }


class Verifier(abc.ABC):
    """Common interface of the violation-search implementations."""

    #: Short name used in reports and driver round records.
    name: str = "base"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE) -> None:
        self.tolerance = float(tolerance)

    @abc.abstractmethod
    def verify(
        self, network: Network | DecoupledNetwork, spec: VerificationSpec
    ) -> VerificationReport:
        """Search ``spec``'s regions for violations by ``network``."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _evaluate(
        network: Network | DecoupledNetwork,
        points: np.ndarray,
        activation_point: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched network outputs, optionally under a pinned activation point."""
        points = np.atleast_2d(points)
        if isinstance(network, DecoupledNetwork) and activation_point is not None:
            activations = np.broadcast_to(activation_point, points.shape)
            return np.atleast_2d(network.compute(points, np.ascontiguousarray(activations)))
        return np.atleast_2d(network.compute(points))

    def _publish_report(self, report: VerificationReport) -> VerificationReport:
        """Mirror a finished report into the metrics registry (pass-through).

        Every verifier routes its return value through here; with telemetry
        disabled this is a single branch and the report comes back untouched
        either way.
        """
        if obs.enabled():
            obs.counter(
                "repro_verify_runs_total",
                "Verification passes by verifier and fast-path use.",
                labels=("verifier", "value_only"),
            ).inc(
                verifier=report.verifier,
                value_only="true" if report.value_only else "false",
            )
            obs.histogram(
                "repro_verify_seconds",
                "Wall-clock seconds per verification pass, by verifier.",
                labels=("verifier",),
            ).observe(report.seconds, verifier=report.verifier)
            statuses = obs.counter(
                "repro_verify_regions_total",
                "Spec-region verdicts across all verification passes.",
                labels=("status",),
            )
            for status, count in (
                ("certified", report.num_certified),
                ("violated", report.num_violated),
                ("unknown", report.num_unknown),
            ):
                if count:
                    statuses.inc(count, status=status)
        return report

    def _check_spec(self, network: Network | DecoupledNetwork, spec: VerificationSpec) -> None:
        """Validate a non-empty spec's dimensions against the network."""
        if spec.num_regions == 0:
            raise SpecificationError("the verification specification has no regions")
        check_spec_dimensions(network, spec)


def check_spec_dimensions(network: Network | DecoupledNetwork, spec: VerificationSpec) -> None:
    """Every region must live in the network's input space, every constraint in its outputs."""
    input_size, output_size = network.input_size, network.output_size
    for index, entry in enumerate(spec.regions):
        if entry.dimension != input_size:
            raise SpecificationError(
                f"region {index} has input dimension {entry.dimension}, "
                f"network expects {input_size}"
            )
        if entry.constraint.output_dimension != output_size:
            raise SpecificationError(
                f"region {index}'s constraint is over dimension "
                f"{entry.constraint.output_dimension}, network outputs "
                f"{output_size}"
            )


def _region_dimension(region: InputRegion) -> int:
    if isinstance(region, LineSegment):
        return region.dimension
    if isinstance(region, Box):
        return region.dimension
    return np.atleast_2d(np.asarray(region)).shape[1]


def _frozen_region(region) -> InputRegion:
    """``region`` with finite, read-only arrays (the same object if it has them)."""
    if isinstance(region, Box):
        return region  # a Box freezes its own bounds
    if isinstance(region, LineSegment):
        start = frozen_array(region.start, "segment start")
        end = frozen_array(region.end, "segment end")
        if start is region.start and end is region.end:
            return region
        return LineSegment(start, end)
    return frozen_array(region, "plane vertices")


def frozen_constraint(constraint: HPolytope) -> HPolytope:
    """``constraint`` with finite, read-only arrays (the same object if it has them)."""
    a = frozen_array(constraint.a, "constraint A")
    b = frozen_array(constraint.b, "constraint b")
    if a is constraint.a and b is constraint.b:
        return constraint
    return HPolytope(a, b)


def _normalize_region(region) -> LineSegment | np.ndarray | None:
    """Map a spec region onto what the SyReNN substrate can decompose.

    Returns a :class:`LineSegment`, a plane-vertex array, a single point
    (1-D array, for fully degenerate boxes), or ``None`` when the region is
    a box varying in three or more dimensions.  The arrays it builds are
    read-only, like the region's own.
    """
    if isinstance(region, LineSegment):
        return region
    if isinstance(region, Box):
        varying = region.varying_dimensions()
        if varying.size == 0:
            return region.lower
        if varying.size == 1:
            end = region.lower.copy()
            end[varying[0]] = region.upper[varying[0]]
            end.flags.writeable = False
            return LineSegment(region.lower, end)
        if varying.size == 2:
            corners = []
            for corner in ((0, 0), (1, 0), (1, 1), (0, 1)):
                point = region.lower.copy()
                for position, dim in enumerate(varying):
                    point[dim] = region.upper[dim] if corner[position] else region.lower[dim]
                corners.append(point)
            corners = np.array(corners)
            corners.flags.writeable = False
            return corners
        return None
    return np.atleast_2d(np.asarray(region, dtype=np.float64))


def _region_entry_dict(entry: SpecRegion) -> dict:
    region = entry.region
    if isinstance(region, LineSegment):
        payload: dict = {
            "kind": "segment",
            "start": region.start.tolist(),
            "end": region.end.tolist(),
        }
    elif isinstance(region, Box):
        payload = {"kind": "box", "lower": region.lower.tolist(), "upper": region.upper.tolist()}
    else:
        payload = {
            "kind": "plane",
            "vertices": np.atleast_2d(np.asarray(region, dtype=np.float64)).tolist(),
        }
    return {
        "region": payload,
        "constraint": {"a": entry.constraint.a.tolist(), "b": entry.constraint.b.tolist()},
        "name": entry.name,
    }


def _region_entry_from_dict(entry: dict) -> SpecRegion:
    constraint = HPolytope(entry["constraint"]["a"], entry["constraint"]["b"])
    payload = entry["region"]
    kind = payload["kind"]
    if kind == "segment":
        region: InputRegion = LineSegment(payload["start"], payload["end"])
    elif kind == "box":
        region = Box(payload["lower"], payload["upper"])
    elif kind == "plane":
        # add_plane's checks.  A vertex array deduplicated when the spec was
        # authored comes back unchanged, keeping geometry digests and
        # partition-cache keys identical across the wire.
        region = checked_plane_vertices(payload["vertices"])
    else:
        raise SpecificationError(f"unknown region kind {kind!r}")
    return SpecRegion(region, constraint, entry.get("name", ""))
