"""Driver benchmark: rounds-to-clean and wall-clock vs. one-shot oversampling.

Builds seeded ACAS-style scenarios — a random PWL classifier plus planar
target regions, each of which must be classified as its current majority
class — and compares two ways of making the regions provably clean:

* **driver** — the CEGIS :class:`~repro.driver.driver.RepairDriver` with the
  exact :class:`~repro.verify.exact.SyrennVerifier`: verify, pool the
  violating region vertices, repair just those, re-verify, until certified;
* **oversampled** — the pre-driver workaround: one-shot batched pointwise
  repair of a dense sample grid over every region, then a single exact
  verification pass to see whether the oversampled LP happened to certify.

The driver's LP only ever contains the counterexample vertices the verifier
actually found, so it is typically far smaller than the oversampled one, and
unlike oversampling it terminates with a certificate.  Results are written
as JSON with the same report shape as ``bench_lp_scaling.py`` (default
``BENCH_driver.json``) so CI can archive the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_driver.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_driver.py --smoke    # CI smoke
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
from repro.driver import DriverConfig, RepairDriver
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier, VerificationSpec

INPUT_SIZE = 2
NUM_CLASSES = 3
CONSTRAINT_MARGIN = 1e-4
MAX_ROUNDS = 10


def build_network(depth: int, width: int, rng: np.random.Generator) -> Network:
    """A random PWL classifier over the plane."""
    layers: list = [FullyConnectedLayer.from_shape(INPUT_SIZE, width, rng), ReLULayer(width)]
    for _ in range(depth - 1):
        layers.append(FullyConnectedLayer.from_shape(width, width, rng))
        layers.append(ReLULayer(width))
    layers.append(FullyConnectedLayer.from_shape(width, NUM_CLASSES, rng))
    return Network(layers)


def build_spec(
    network: Network, num_regions: int, rng: np.random.Generator
) -> VerificationSpec:
    """Disjoint square regions, each required to keep its majority class.

    The squares tile a grid over the input box (disjoint, so no two regions
    can impose conflicting winners on shared points).  A region where the
    network is not yet unanimous contains violations, so the scenario starts
    dirty and both strategies have real work to do.
    """
    spec = VerificationSpec()
    grid_size = int(np.ceil(np.sqrt(num_regions)))
    cell = 2.0 / grid_size
    for index in range(num_regions):
        row, column = divmod(index, grid_size)
        center = np.array(
            [-1.0 + (column + 0.5) * cell, -1.0 + (row + 0.5) * cell]
        )
        half = 0.45 * cell  # inset so adjacent regions do not share vertices
        square = center + half * np.array(
            [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        )
        samples = center + rng.uniform(-half, half, size=(256, INPUT_SIZE))
        counts = np.bincount(network.predict(samples), minlength=NUM_CLASSES)
        winner = int(counts.argmax())
        spec.add_plane(
            square,
            HPolytope.argmax_region(NUM_CLASSES, winner, CONSTRAINT_MARGIN),
            name=f"region{index}",
        )
    return spec


def run_driver(network: Network, spec: VerificationSpec) -> dict:
    """Time a full certified-repair driver run."""
    start = time.perf_counter()
    driver = RepairDriver(
        network,
        spec,
        SyrennVerifier(),
        config=DriverConfig(max_rounds=MAX_ROUNDS, norm="linf"),
    )
    report = driver.run()
    total = time.perf_counter() - start
    constraint_rows = sum(
        c.constraint.num_constraints for c in driver.pool.counterexamples
    )
    return {
        "total_seconds": total,
        "rounds": report.num_rounds,
        "status": report.status,
        "certified": report.certified,
        "pool_size": report.pool_size,
        "constraint_rows": constraint_rows,
        "unsatisfied_pool": len(report.unsatisfied_pool_indices),
        "timing": report.timing.as_dict(),
        "network": report.network,
    }


def run_oversampled(
    network: Network, spec: VerificationSpec, resolution: int, rng: np.random.Generator
) -> dict:
    """Time the one-shot alternative: repair a dense sample grid of every region."""
    start = time.perf_counter()
    points, constraints = [], []
    steps = np.linspace(0.0, 1.0, resolution)
    for entry in spec.regions:
        vertices = np.asarray(entry.region)
        # Bilinear lattice over the square region.
        for u in steps:
            for v in steps:
                weights = np.array(
                    [(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v]
                )
                points.append(weights @ vertices)
                constraints.append(entry.constraint)
    repair_spec = PointRepairSpec(points=np.array(points), constraints=constraints)
    layer_index = network.parameterized_layer_indices()[-1]
    result = point_repair(network, layer_index, repair_spec, norm="linf")
    record = {
        "num_points": repair_spec.num_points,
        "constraint_rows": repair_spec.num_constraint_rows,
        "feasible": result.feasible,
        "certified": False,
    }
    if result.feasible:
        verification = SyrennVerifier().verify(result.network, spec)
        record["certified"] = verification.certified
        record["remaining_violations"] = verification.num_violated
    record["total_seconds"] = time.perf_counter() - start
    return record


def run_benchmark(
    region_counts: list[int], depth: int, width: int, resolution: int, seed: int
) -> dict:
    """Sweep scenario sizes and return the JSON-ready report."""
    records = []
    for num_regions in region_counts:
        # Seeded through repro.utils.rng so the bench JSON is reproducible
        # run to run (and scenario generation matches the library's seeding
        # conventions everywhere else).
        rng = ensure_rng(seed + num_regions)
        network = build_network(depth, width, rng)
        spec = build_spec(network, num_regions, rng)

        driver = run_driver(network, spec)
        if driver["unsatisfied_pool"]:
            raise AssertionError(
                "driver's final network violates pooled counterexamples "
                f"({driver['unsatisfied_pool']} of {driver['pool_size']})"
            )
        driver.pop("network")
        oversampled = run_oversampled(network, spec, resolution, rng)
        speedup = oversampled["total_seconds"] / max(driver["total_seconds"], 1e-12)
        records.append(
            {
                "num_regions": num_regions,
                "driver": driver,
                "oversampled": oversampled,
                "speedup": speedup,
            }
        )
        print(
            f"regions={num_regions:>3}  "
            f"driver={driver['total_seconds']:.3f}s "
            f"({driver['rounds']} rounds, {driver['constraint_rows']} LP rows, "
            f"{driver['status']})  "
            f"oversampled={oversampled['total_seconds']:.3f}s "
            f"({oversampled['constraint_rows']} LP rows, "
            f"certified={oversampled['certified']})  "
            f"speedup={speedup:.1f}x"
        )
    return {
        "benchmark": "driver",
        "network": {"depth": depth, "width": width, "input_size": INPUT_SIZE},
        "oversample_resolution": resolution,
        "seed": seed,
        "python": platform.python_version(),
        "results": records,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regions",
        type=int,
        nargs="+",
        default=[2, 4, 8],
        help="target-region counts to sweep (default: 2 4 8)",
    )
    parser.add_argument("--depth", type=int, default=3, help="hidden ReLU layers")
    parser.add_argument("--width", type=int, default=16, help="hidden layer width")
    parser.add_argument(
        "--resolution", type=int, default=24, help="per-axis oversampling grid resolution"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: smallest scenario only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_driver.json"),
        help="where to write the JSON report (default: BENCH_driver.json)",
    )
    args = parser.parse_args()
    obs.enable()
    if args.smoke:
        args.regions, args.depth, args.width, args.resolution = [2], 2, 12, 12
    report = run_benchmark(args.regions, args.depth, args.width, args.resolution, args.seed)
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
