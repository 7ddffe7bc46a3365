"""LP-scaling benchmark: end-to-end pointwise repair as the LP grows.

Builds synthetic pointwise repairs whose LP grows from ~10² to ~10⁴
constraint rows and times ``point_repair`` end to end (vectorized Jacobian
computation, constraint rows streamed as CSR chunks into the LP, and the LP
solve).

Every size is cross-checked before timings are reported: the same repair
with a tiny chunk budget (``CHECK_CHUNK_BYTES``, many streamed chunks
instead of one) must return the same LP status and a byte-identical delta.
Results are written as JSON (default ``BENCH_lp_scaling.json``) so CI can
archive the perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_lp_scaling.py                # full sweep
    PYTHONPATH=src python benchmarks/bench_lp_scaling.py --sizes 100    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
from conftest import telemetry_document
from repro.core.point_repair import point_repair
from repro.core.specs import PointRepairSpec
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.utils.rng import ensure_rng

INPUT_SIZE = 10
NUM_CLASSES = 2   # binary classifier: one argmax constraint row per point
BOTTLENECK = 10
REPAIR_LAYER = 0  # the bottleneck layer: few parameters, deep downstream pass
DELTA_BOUND = 0.05  # box bound on Δ
#: Chunk budget of the cross-check run: small enough for many chunks.
CHECK_CHUNK_BYTES = 64 * 1024


def build_network(depth: int, width: int, rng: np.random.Generator) -> Network:
    """A deep ReLU classifier with a small repairable bottleneck layer.

    Repairing the first layer keeps the LP's delta-variable count fixed
    while the downstream Jacobian pass crosses ``depth`` hidden layers, so
    constraint rows — not parameters — dominate the scaling.
    """
    layers = [FullyConnectedLayer.from_shape(INPUT_SIZE, BOTTLENECK, rng), ReLULayer(BOTTLENECK)]
    previous = BOTTLENECK
    for _ in range(depth):
        layers.append(FullyConnectedLayer.from_shape(previous, width, rng))
        layers.append(ReLULayer(width))
        previous = width
    layers.append(FullyConnectedLayer.from_shape(previous, NUM_CLASSES, rng))
    return Network(layers)


def build_spec(network: Network, num_points: int, rng: np.random.Generator) -> PointRepairSpec:
    """A verification-style spec: every point must keep its current argmax.

    The spec is satisfiable at Δ = 0, so the LP solve stays cheap and the
    benchmark isolates the scaling of the encoding pipeline (Jacobians +
    constraint assembly).  Flipping labels instead makes HiGHS iteration
    counts swamp the measurement.
    """
    points = rng.normal(size=(num_points, network.input_size))
    outputs = np.atleast_2d(network.compute(points))
    labels = outputs.argmax(axis=1)
    return PointRepairSpec.from_labels(points, labels, num_classes=NUM_CLASSES, margin=0.0)


def run_one(
    network: Network,
    spec: PointRepairSpec,
    *,
    max_chunk_bytes: int | None = None,
    rounds: int = 2,
) -> dict:
    """Time one end-to-end repair; repeat ``rounds`` times and keep the best.

    A repair is a deterministic one-shot computation, so the minimum over a
    few rounds (timeit-style) filters out first-touch page faults and BLAS
    thread-pool spin-up without distorting the measurement.
    """
    best = None
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        result = point_repair(
            network,
            REPAIR_LAYER,
            spec,
            norm="linf",
            delta_bound=DELTA_BOUND,
            max_chunk_bytes=max_chunk_bytes,
        )
        total = time.perf_counter() - start
        if best is None or total < best["total_seconds"]:
            best = {
                "total_seconds": total,
                "jacobian_seconds": result.timing.jacobian_seconds,
                "lp_seconds": result.timing.lp_seconds,
                "status": str(result.lp_status),
                "feasible": result.feasible,
                "num_constraint_rows": result.num_constraint_rows,
                "num_variables": result.num_variables,
                "delta": result.delta,
            }
    return best


def run_benchmark(sizes: list[int], depth: int, width: int, seed: int) -> dict:
    """Run the size sweep and return the JSON-ready report."""
    rng = ensure_rng(seed)  # seeded through repro.utils.rng for reproducible JSON
    network = build_network(depth, width, rng)
    rows_per_point = NUM_CLASSES - 1  # one argmax constraint row per rival class
    records = []
    for target_rows in sizes:
        num_points = max(1, target_rows // rows_per_point)
        spec = build_spec(network, num_points, rng)
        repair = run_one(network, spec)
        check = run_one(network, spec, max_chunk_bytes=CHECK_CHUNK_BYTES, rounds=1)
        if check["status"] != repair["status"]:
            raise AssertionError(
                f"chunk budgets disagree on LP status: {repair['status']} vs {check['status']}"
            )
        if repair["feasible"] and repair["delta"].tobytes() != check["delta"].tobytes():
            raise AssertionError("chunk budgets disagree on the repair delta bytes")

        repair.pop("delta")
        records.append(
            {
                "target_rows": target_rows,
                "num_points": num_points,
                "constraint_rows": repair["num_constraint_rows"],
                "repair": repair,
            }
        )
        print(
            f"rows={repair['num_constraint_rows']:>6}  "
            f"repair={repair['total_seconds']:.3f}s  "
            f"(jacobian={repair['jacobian_seconds']:.3f}s  lp={repair['lp_seconds']:.3f}s)"
        )
    return {
        "benchmark": "lp_scaling",
        "network": {"depth": depth, "width": width, "input_size": INPUT_SIZE},
        "seed": seed,
        "python": platform.python_version(),
        "results": records,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[100, 1000, 10000],
        help="target constraint-row counts to sweep (default: 100 1000 10000)",
    )
    parser.add_argument("--depth", type=int, default=24, help="hidden layers after the bottleneck")
    parser.add_argument("--width", type=int, default=48, help="hidden layer width")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_lp_scaling.json"),
        help="where to write the JSON report (default: BENCH_lp_scaling.json)",
    )
    args = parser.parse_args()
    obs.enable()
    report = run_benchmark(args.sizes, args.depth, args.width, args.seed)
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
