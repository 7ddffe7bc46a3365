"""Figures 3, 4, and 5: the running example.

Regenerates the data behind the paper's illustrative figures:

* Figure 3 — input–output curves and linear regions of N₁ and N₂;
* Figure 4 — the decoupled N₃/N₄ (a value-channel edit keeps N₁'s regions);
* Figure 5 — the pointwise repair (Equation 2) and polytope repair
  (Equation 3) of N₁ and their curves.
"""

from __future__ import annotations

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import polytope_repair
from repro.core.specs import PointRepairSpec, PolytopeRepairSpec
from repro.experiments.figures import input_output_curve
from repro.experiments.reporting import print_table
from repro.models.toy import paper_network_n1, paper_network_n2
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment


def _equation2_spec() -> PointRepairSpec:
    return PointRepairSpec(
        points=np.array([[0.5], [1.5]]),
        constraints=[
            HPolytope.from_interval(1, 0, -1.0, -0.8),
            HPolytope.from_interval(1, 0, -0.2, 0.0),
        ],
    )


def _equation3_spec() -> PolytopeRepairSpec:
    spec = PolytopeRepairSpec()
    spec.add_segment(
        LineSegment(np.array([0.5]), np.array([1.5])),
        HPolytope.from_interval(1, 0, -0.8, -0.4),
    )
    return spec


def _curve_row(name: str, network) -> dict:
    curve = input_output_curve(network)
    return {
        "network": name,
        "regions": ", ".join(f"{value:.2f}" for value in curve.region_boundaries),
        "y(0.5)": float(np.interp(0.5, curve.inputs, curve.outputs)),
        "y(1.5)": float(np.interp(1.5, curve.inputs, curve.outputs)),
    }


def test_figure3_and_4_curves(benchmark):
    """Figure 3/4: N₁, N₂, and the value-channel-edited DDNN N₄."""

    def run():
        n1, n2 = paper_network_n1(), paper_network_n2()
        n4 = DecoupledNetwork.from_network(n1).with_parameter_delta(
            0, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        )
        return [
            _curve_row("N1 (Figure 3c)", n1),
            _curve_row("N2 (Figure 3d)", n2),
            _curve_row("N4 = DDNN value edit (Figure 4d)", n4),
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Figures 3 and 4: curves and linear regions", rows)
    # N2 and N4 change the curve, but only N2 moves the region boundaries.
    assert rows[0]["regions"] == rows[2]["regions"]
    assert rows[0]["regions"] != rows[1]["regions"]


def test_figure5a_pointwise_repair(benchmark):
    """Figure 5(a)/(c): the Equation 2 pointwise repair of N₁."""

    def run():
        return point_repair(paper_network_n1(), 0, _equation2_spec(), norm="l1")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.feasible
    row = _curve_row("N5 (Figure 5c)", result.network)
    row["delta_l1"] = result.delta_l1_norm
    print_table("Figure 5(a): pointwise-repaired N5", [row])
    assert -1.0 <= row["y(0.5)"] <= -0.8 + 1e-6
    assert -0.2 - 1e-6 <= row["y(1.5)"] <= 0.0


def test_figure5b_polytope_repair(benchmark):
    """Figure 5(b)/(d): the Equation 3 polytope repair of N₁."""

    def run():
        return polytope_repair(paper_network_n1(), 0, _equation3_spec(), norm="l1")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.feasible
    row = _curve_row("N6 (Figure 5d)", result.network)
    row["delta_l1"] = result.delta_l1_norm
    print_table("Figure 5(b): polytope-repaired N6", [row])
    # The paper's ℓ1-minimal repair is the single change Δ2 = −0.2.
    assert abs(result.delta_l1_norm - 0.2) < 1e-6
    # The whole segment [0.5, 1.5] now lies in [-0.8, -0.4].
    for value in np.linspace(0.5, 1.5, 51):
        output = result.network.compute(np.array([value]))[0]
        assert -0.8 - 1e-6 <= output <= -0.4 + 1e-6
