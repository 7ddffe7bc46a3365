"""ImageNet-scaling benchmark: out-of-core driver-certified SqueezeNet repair.

Sweeps the feasible-by-construction classifier-perturbation workload
(:func:`repro.experiments.task1_imagenet.classifier_perturbation_workload`)
from ~10³ to ~10⁵ LP constraint rows and runs the full CEGIS
:class:`~repro.driver.driver.RepairDriver` on each size with a configured
``memory_budget`` — so constraint rows stream through the chunked
Jacobian→LP pipeline and old counterexamples spill from the pool to disk.
Each record reports rows vs round-seconds vs peak RSS, plus the pool/chunk
telemetry of the out-of-core tiers.

Two cross-checks always run (they are correctness gates, not timings):

* a small-chunk repair delta is byte-identical to the default one-chunk
  repair on the smallest workload;
* every run's peak RSS stays under the configured memory budget.

Results are written as JSON (default ``BENCH_imagenet_scaling.json``) with
the same envelope as the other benchmarks, so the perf sentinel can track
``imagenet_round_seconds`` across commits.

Usage::

    PYTHONPATH=src python benchmarks/bench_imagenet_scaling.py               # full sweep
    PYTHONPATH=src python benchmarks/bench_imagenet_scaling.py --rows 800    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import repro.obs as obs
from conftest import telemetry_document
from repro.core.point_repair import point_repair
from repro.core.specs import PointRepairSpec
from repro.experiments.task1_imagenet import (
    CLASSIFICATION_MARGIN,
    classifier_perturbation_workload,
    driver_certified_repair,
)

NUM_CLASSES = 9
ROWS_PER_POINT = NUM_CLASSES - 1  # one argmax row per rival class
# The single out-of-core knob.  Peak RSS includes memory the budget cannot
# bound — above all the LP solver's internal copies of the constraint
# matrix (~22.5M nonzeros at 10^5 rows), which dominate at the top of the
# sweep (~3.6 GB measured) — so the default leaves headroom above the
# streamed tiers the budget actually controls.
DEFAULT_MEMORY_BUDGET = 6 * 1024**3


def peak_rss_bytes() -> int:
    """Peak RSS of this process (monotone, so sweep sizes ascending)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def check_chunked_matches_dense(workload) -> None:
    """Gate: a many-chunk repair is byte-identical to the one-chunk repair."""
    count = min(workload.num_points, 200)
    spec = PointRepairSpec.from_labels(
        workload.points[:count],
        workload.labels[:count],
        num_classes=workload.num_classes,
        margin=CLASSIFICATION_MARGIN,
    )
    dense = point_repair(workload.buggy, workload.classifier_layer, spec)
    chunked = point_repair(
        workload.buggy, workload.classifier_layer, spec, max_chunk_bytes=256 * 1024
    )
    if dense.feasible != chunked.feasible:
        raise AssertionError("chunked and dense paths disagree on feasibility")
    if dense.delta.tobytes() != chunked.delta.tobytes():
        raise AssertionError("chunked repair delta is not byte-identical to dense")


def run_one(target_rows: int, memory_budget: int, seed: int) -> dict:
    """One driver-certified repair at ``target_rows`` LP constraint rows."""
    num_points = max(1, target_rows // ROWS_PER_POINT)
    build_start = time.perf_counter()
    workload = classifier_perturbation_workload(num_points, seed=seed)
    build_seconds = time.perf_counter() - build_start

    start = time.perf_counter()
    report, driver = driver_certified_repair(workload, memory_budget=memory_budget)
    total_seconds = time.perf_counter() - start
    peak_rss = peak_rss_bytes()
    record = {
        "target_rows": target_rows,
        "constraint_rows": workload.constraint_rows,
        "num_points": workload.num_points,
        "status": report.status,
        "certified": report.certified,
        "rounds": report.num_rounds,
        "lp_rows_appended": report.lp_rows_appended,
        "pool_size": report.pool_size,
        "pool_spilled_entries": driver.pool.spilled_entries,
        "pool_resident_bytes": driver.pool.resident_bytes,
        "workload_build_seconds": build_seconds,
        "total_seconds": total_seconds,
        "round_seconds_mean": total_seconds / max(1, report.num_rounds),
        "timing": report.timing.as_dict(),
        "memory_budget": memory_budget,
        "peak_rss_bytes": peak_rss,
        "budget_ok": peak_rss < memory_budget,
    }
    if not report.certified:
        raise AssertionError(
            f"driver did not certify the {target_rows}-row repair: {report.status}"
        )
    if not record["budget_ok"]:
        raise AssertionError(
            f"peak RSS {peak_rss} exceeded the {memory_budget}-byte memory budget"
        )
    return record


def run_benchmark(sizes: list[int], memory_budget: int, seed: int) -> dict:
    """Run the ascending-size sweep and return the JSON-ready report."""
    # Peak RSS is process-monotone: ascending sizes attribute each record's
    # peak to the largest workload seen so far, i.e. its own.
    sizes = sorted(sizes)
    check_chunked_matches_dense(
        classifier_perturbation_workload(max(1, min(sizes) // ROWS_PER_POINT), seed=seed)
    )
    print("cross-check passed: chunked delta byte-identical to dense")
    records = []
    for target_rows in sizes:
        record = run_one(target_rows, memory_budget, seed)
        records.append(record)
        print(
            f"rows={record['constraint_rows']:>7}  "
            f"status={record['status']}  rounds={record['rounds']}  "
            f"round={record['round_seconds_mean']:.2f}s  "
            f"rss={record['peak_rss_bytes'] / 1024**2:.0f}MB  "
            f"spilled={record['pool_spilled_entries']}"
        )
    return {
        "benchmark": "imagenet_scaling",
        "memory_budget": memory_budget,
        "seed": seed,
        "python": platform.python_version(),
        "results": records,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows",
        type=int,
        nargs="+",
        default=[1000, 10000, 100000],
        help="target constraint-row counts to sweep (default: 1000 10000 100000)",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=DEFAULT_MEMORY_BUDGET,
        help="driver memory budget in bytes (default: 6 GiB)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_imagenet_scaling.json"),
        help="where to write the JSON report (default: BENCH_imagenet_scaling.json)",
    )
    args = parser.parse_args()
    obs.enable()
    report = run_benchmark(args.rows, args.memory_budget, args.seed)
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
