"""Convex-geometry helpers.

These utilities underpin the SyReNN substrate (:mod:`repro.syrenn`) and the
repair specifications:

* :mod:`repro.polytope.segment` — line segments in input space (the 1-D
  polytopes used by the MNIST fog-line repair task).
* :mod:`repro.polytope.polygon` — the area and convex hull of planar
  polygons (the 2-D SyReNN decomposition clips its pieces itself, in
  :mod:`repro.syrenn.plane`).
* :mod:`repro.polytope.hpolytope` — output-space polytopes in half-space
  representation ``{y : A y ≤ b}`` (the right-hand side of every repair
  specification).
"""

from repro.polytope.segment import LineSegment
from repro.polytope.polygon import polygon_area, convex_hull
from repro.polytope.hpolytope import HPolytope

__all__ = [
    "LineSegment",
    "polygon_area",
    "convex_hull",
    "HPolytope",
]
