"""Ablation benchmarks (not in the paper, but probing its design choices).

* Norm objective: ℓ1 vs ℓ∞ vs the combined ℓ1+ℓ∞ objective, measured by the
  drawdown of the resulting Task 2 repair.
* Repair-layer choice: drawdown of repairing each layer of the digit
  network (the heuristic discussed in §7.1: later layers repair cheaply).
"""

from __future__ import annotations

import pytest

from repro.core.point_repair import point_repair
from repro.core.specs import PointRepairSpec
from repro.experiments.reporting import format_seconds, print_table
from repro.experiments.task2_mnist_lines import provable_line_repair

NORMS = ("l1", "linf", "l1+linf")


@pytest.mark.parametrize("norm", NORMS)
def test_ablation_norm_objective(benchmark, task2_setup, norm):
    """How the choice of minimized norm affects drawdown and generalization."""

    def run():
        return provable_line_repair(task2_setup, 4, task2_setup.layer_3_index, norm=norm)

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Ablation: norm objective = {norm}",
        [
            {
                "norm": norm,
                "drawdown_%": record["drawdown"],
                "generalization_%": record["generalization"],
                "delta_time": format_seconds(record["time_total"]),
            }
        ],
    )
    assert record["feasible"]


def test_ablation_repair_layer_choice(benchmark, task2_setup):
    """Per-layer drawdown of a pointwise repair of the digit network."""
    points = task2_setup.dataset.test_images[:8]
    labels = task2_setup.dataset.test_labels[:8]
    spec = PointRepairSpec.from_labels(
        points, labels, num_classes=task2_setup.network.output_size, margin=1e-3
    )

    def run():
        rows = []
        for layer_index in task2_setup.network.parameterized_layer_indices():
            result = point_repair(task2_setup.network, layer_index, spec, norm="l1")
            if not result.feasible:
                rows.append({"layer": layer_index, "feasible": False})
                continue
            from repro.experiments.metrics import drawdown

            rows.append(
                {
                    "layer": layer_index,
                    "feasible": True,
                    "drawdown_%": drawdown(
                        task2_setup.network,
                        result.network,
                        task2_setup.drawdown_images,
                        task2_setup.drawdown_labels,
                    ),
                    "time": format_seconds(result.timing.total_seconds),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: repair-layer choice (digit network)", rows)
    assert any(row["feasible"] for row in rows)
