#!/usr/bin/env python3
"""Task 2 scenario, closed loop: certified polytope repair of fog lines.

A small fully-connected ReLU classifier is trained on clean synthetic digits
and collapses on fog-corrupted ones.  The specification requires *every*
point on the line from each selected clean image to its fog-corrupted
version — infinitely many points per line — to be classified as the clean
image's digit, with a decisively strengthened margin.

Instead of handing the whole specification to one LP (the one-shot
``polytope_repair`` this example used to call), the specification now drives
``RepairDriver(mode="polytope")``: the exact verifier decomposes each line
into linear regions and reports the violating regions whole, the
counterexample pool dedups them by activation pattern and expands each to
its key points, and the driver's LP session grows round by round until
the verifier *certifies* every region — a machine-checked proof that the
repaired network classifies all infinitely many line points correctly.

Run with:  python examples/mnist_fog_polytope_repair.py
(The first run trains and caches the digit network; later runs reuse it.)
"""

from __future__ import annotations

from repro.driver import DriverConfig, RepairDriver
from repro.experiments.metrics import drawdown, generalization
from repro.experiments.reporting import format_seconds, print_table
from repro.experiments.task2_mnist_lines import (
    setup_task2,
    strengthened_line_specification,
)
from repro.models.zoo import ModelZoo
from repro.verify import SyrennVerifier

NUM_LINES = 6


def main() -> None:
    setup = setup_task2(ModelZoo(), max_lines=NUM_LINES)
    print("Buggy digit network:")
    print(f"  clean test accuracy : {setup.buggy_clean_accuracy:.1f}%")
    print(f"  foggy test accuracy : {setup.buggy_fog_accuracy:.1f}%")

    spec = strengthened_line_specification(setup, NUM_LINES)
    driver = RepairDriver(
        setup.network,
        spec,
        SyrennVerifier(),
        config=DriverConfig(
            mode="polytope",
            layer_schedule=[setup.layer_3_index, setup.layer_2_index],
            norm="l1",
            max_new_counterexamples=16,
            max_rounds=40,
        ),
    )
    report = driver.run()

    rows = [
        {
            "round": record.round_index,
            "violated regions": record.regions_violated,
            "new regions": record.new_counterexamples,
            "pool key points": record.pool_key_points,
            "LP rows appended": record.lp_rows_appended,
            "value-only verify": "yes" if record.verify_value_only else "no",
            "time": format_seconds(record.seconds + record.repair_seconds),
        }
        for record in report.rounds
    ]
    print_table(
        f"Polytope-CEGIS repair of {NUM_LINES} fog lines "
        f"({report.final_report.num_regions} certified regions)",
        rows,
    )

    print(f"\nVerdict: {report.status.upper()} after {report.num_rounds} rounds")
    if not report.certified:
        raise SystemExit("expected a certified verdict — the loop did not converge")
    print(
        f"  drawdown       : "
        f"{drawdown(setup.network, report.network, setup.drawdown_images, setup.drawdown_labels):+.1f}%"
    )
    print(
        f"  generalization : "
        f"{generalization(setup.network, report.network, setup.generalization_images, setup.generalization_labels):+.1f}%"
    )
    print(
        "\nThe exact verifier certified every linear region of every line:"
        " all infinitely many points of the repaired lines are provably"
        " classified as the clean images' digits (with margin)."
    )


if __name__ == "__main__":
    main()
