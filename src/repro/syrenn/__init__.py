"""SyReNN substrate: exact linear-region decompositions of PWL networks.

The polytope repair algorithm (Algorithm 2 of the paper) needs, for each
specification polytope ``P``, the partition ``LinRegions(N, P)`` of ``P``
into the linear regions of the piecewise-linear network ``N``.  The paper
uses the SyReNN tool (Sotoudeh & Thakur, TACAS 2021) for one- and
two-dimensional ``P``; this package re-implements that capability:

* :func:`repro.syrenn.line.transform_line` — the ExactLine algorithm for 1-D
  segments.
* :func:`repro.syrenn.plane.transform_planes` — the polygon-splitting
  algorithm for 2-D planes (restricted to convex planar polygons embedded in
  the input space), run over a whole batch of polygons at once: one
  ``forward`` per layer for every piece of every polygon, and one
  vectorized clip pass per straddled coordinate for every piece it cuts.
  :func:`repro.syrenn.plane.transform_plane` is its batch of one.

Both return region objects that expose (a) the region's vertices in input
space and (b) a representative interior point, which the repair algorithm
uses as the activation point of each key point (Appendix B of the paper).
:class:`repro.syrenn.cache.PartitionCache` keeps decompositions across
verification passes, in memory and optionally on disk.
"""

from repro.syrenn.cache import PartitionCache
from repro.syrenn.line import LinePartition, LineRegion, transform_line
from repro.syrenn.plane import PlanePartition, PlaneRegion, transform_plane, transform_planes
from repro.syrenn.regions import LinearRegion, geometry_digest

__all__ = [
    "transform_line",
    "LinePartition",
    "LineRegion",
    "transform_plane",
    "transform_planes",
    "PlanePartition",
    "PlaneRegion",
    "LinearRegion",
    "PartitionCache",
    "geometry_digest",
]
