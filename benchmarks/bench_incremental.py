"""Incremental-CEGIS benchmark: per-round driver cost on ACAS φ8.

Builds the strengthened φ8 verification workload (every linear region of
``--slices`` random 2-D slices of the property box becomes its own
verification region) and runs the CEGIS repair driver over each scenario.
Every round, verification takes the value-only fast path (one batched
re-evaluation of the cached vertex stack), repair appends only the new
counterexamples' rows to the driver's standing LP session, and each
round's LP re-solves the session's retained HiGHS model warm over the rows
row generation admitted.

Round counts are scaled by rationing counterexample intake
(``max_new_counterexamples``): a smaller ration means more, smaller rounds —
the regime the standing session exists for.  Round 0 builds the caches, so
the headline metric is the **mean per-round cost over rounds ≥ 1**; the
report also carries end-to-end totals.

The cross-check is always on: the run must certify, leave every pooled
counterexample satisfied, and end at a delta whose ℓ∞ norm equals the
objective of a one-shot ``point_repair(base, layer, final pool)`` to 1e-9
relative.  The bytes may differ: the session admitted its rows round by
round and re-solved warm, so it may stop at another optimal vertex of the
same LP.

Results are written as JSON with the same report shape as
``bench_lp_scaling.py`` (default ``BENCH_incremental.json``) so CI can
archive the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke   # CI smoke
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
from repro.datasets.acas import phi8_property
from repro.driver import DriverConfig, RepairDriver
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.models.acas_models import build_acas_network
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier, VerificationSpec

MAX_ROUNDS = 60


def build_workload(
    num_slices: int, hidden_size: int, hidden_layers: int, seed: int
) -> tuple:
    """An advisory network plus the strengthened φ8 slice spec."""
    network = build_acas_network(
        hidden_size=hidden_size, hidden_layers=hidden_layers, seed=seed
    )
    safety_property = phi8_property()
    rng = ensure_rng(seed)
    slices = [safety_property.random_slice(rng) for _ in range(num_slices)]
    empty = np.zeros((0, network.input_size))
    setup = Task3Setup(network, safety_property, slices, empty, empty, 0)
    return network, strengthened_verification_spec(network, setup)


def run_driver(network, spec: VerificationSpec, *, ration: int) -> dict:
    """One full driver run; returns timings plus the report for cross-checks."""
    start = time.perf_counter()
    driver = RepairDriver(
        network,
        spec,
        SyrennVerifier(),
        config=DriverConfig(max_rounds=MAX_ROUNDS, max_new_counterexamples=ration),
    )
    report = driver.run()
    total = time.perf_counter() - start
    per_round = [record.seconds + record.repair_seconds for record in report.rounds]
    later = per_round[1:]  # round 0 builds the caches
    return {
        "total_seconds": total,
        "rounds": report.num_rounds,
        "status": report.status,
        "certified": report.certified,
        "pool_size": report.pool_size,
        "per_round_seconds": per_round,
        "mean_round_seconds": sum(later) / len(later) if later else float("nan"),
        "lp_rows_appended": report.lp_rows_appended,
        "warm_started_rounds": report.warm_started_rounds,
        "value_only_rounds": report.value_only_rounds,
        "lp_iterations": report.lp_iterations,
        "timing": report.timing.as_dict(),
        "report": report,
        "pool_spec": driver.pool.point_spec(margin=driver.repair_margin),
    }


def cross_check(network, run: dict) -> None:
    """Outcome-level equivalence with a one-shot repair of the final pool."""
    report = run["report"]
    if not report.certified:
        raise AssertionError(f"the driver ended {report.status!r}, not certified")
    if report.unsatisfied_pool_indices:
        raise AssertionError("the final network violates pooled counterexamples")
    layer = [r.layer_index for r in report.rounds if r.repair_feasible][-1]
    one_shot = point_repair(network, layer, run["pool_spec"])
    final = [r for r in report.rounds if r.repair_feasible][-1]
    if not np.isclose(final.delta_linf, one_shot.objective_value, rtol=1e-9, atol=0.0):
        raise AssertionError(
            f"driver delta norm {final.delta_linf!r} vs one-shot objective "
            f"{one_shot.objective_value!r}"
        )


def strip(run: dict) -> dict:
    """The JSON-ready part of a :func:`run_driver` record."""
    run.pop("report")
    run.pop("pool_spec")
    return run


def run_benchmark(
    rations: list[int],
    *,
    num_slices: int,
    hidden_size: int,
    hidden_layers: int,
    seed: int,
) -> dict:
    """Sweep counterexample rations and return the JSON-ready report."""
    network, spec = build_workload(num_slices, hidden_size, hidden_layers, seed)
    records = []
    for ration in rations:
        run = run_driver(network, spec, ration=ration)
        cross_check(network, run)
        strip(run)
        records.append(
            {
                "ration": ration,
                "rounds": run["rounds"],
                "incremental": run,
            }
        )
        print(
            f"ration={ration:>3}  rounds={run['rounds']:>3}  "
            f"per-round={run['mean_round_seconds'] * 1e3:7.1f}ms  "
            f"total={run['total_seconds']:.2f}s  "
            f"(warm={run['warm_started_rounds']}, "
            f"value-only={run['value_only_rounds']})"
        )
    return {
        "benchmark": "incremental",
        "network": {
            "hidden_size": hidden_size,
            "hidden_layers": hidden_layers,
            "input_size": 5,
        },
        "num_slices": num_slices,
        "regions": spec.num_regions,
        "seed": seed,
        "python": platform.python_version(),
        "results": records,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Sized flags default to None (a sentinel) so --smoke can fill in only
    # the values the user did not pass explicitly.
    parser.add_argument(
        "--rations",
        type=int,
        nargs="+",
        default=None,
        help="per-round counterexample rations to sweep "
        "(default: 4 8 16; 6 with --smoke)",
    )
    parser.add_argument(
        "--slices", type=int, default=None,
        help="φ8 slices in the workload (default: 6; 3 with --smoke)",
    )
    parser.add_argument(
        "--hidden", type=int, default=None,
        help="hidden layer width (default: 24; 12 with --smoke)",
    )
    parser.add_argument(
        "--layers", type=int, default=None,
        help="hidden layer count (default: 5; 3 with --smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: one small workload and a single ration "
        "(explicitly passed flags still win)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_incremental.json"),
        help="where to write the JSON report (default: BENCH_incremental.json)",
    )
    args = parser.parse_args()
    obs.enable()
    defaults = (
        {"rations": [6], "slices": 3, "hidden": 12, "layers": 3}
        if args.smoke
        else {"rations": [4, 8, 16], "slices": 6, "hidden": 24, "layers": 5}
    )
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    report = run_benchmark(
        args.rations,
        num_slices=args.slices,
        hidden_size=args.hidden,
        hidden_layers=args.layers,
        seed=args.seed,
    )
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
