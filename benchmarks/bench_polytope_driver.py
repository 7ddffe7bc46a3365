"""Polytope-CEGIS benchmark: driver-polytope vs one-shot Algorithm 2.

Two workloads, both infinite-point polytope specifications:

* **mnist_fog_lines** — the Task 2 digit classifier with the *strengthened*
  fog-line specification (winning logit must beat every other logit by a
  decisive margin at every point of every clean→fog line);
* **acas_planes** — an ACAS advisory network with the strengthened φ8 slice
  specification packaged as planar polytopes.

For each workload the script compares:

* **one-shot** — ``polytope_repair``: decompose *every* specification
  polytope, encode *every* linear region's vertices, solve one LP (the
  paper's Algorithm 2 as a single call), then verify the result exactly;
* **driver** — ``RepairDriver(mode="polytope")``: the verifier discovers
  violating regions, the pool dedups and expands them, and the loop
  iterates to a certified verdict through the standing LP session and
  value-only re-verification.

Cross-checks are strict and always on.  A ``workers=4`` engine-backed run
must be **byte-identical** to ``workers=1`` on both workloads (round
counts, verdicts, margins, value-channel parameters).  The driver's final
network is also checked against a one-shot ``point_repair(base, layer,
final pool)`` at the outcome level: the run certifies, every pooled
counterexample is satisfied, and the norm objective matches to ``1e-9``
relative.  Bytes are not compared: the driver's LP session admitted its
rows round by round and re-solved warm, so it may end at a different
optimal vertex of the same LP (and on the wide 64-input digit value
channel BLAS also rounds full-pool and micro-batch matmuls differently in
the last bit).  ``one_shot_byte_identical`` records whether a run happened
to land on the same bytes.

Results are written as JSON with the same report shape as the other benches
(default ``BENCH_polytope_driver.json``) so CI can archive the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_polytope_driver.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_polytope_driver.py --smoke  # CI smoke
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
from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import count_key_points, polytope_repair
from repro.core.specs import PolytopeRepairSpec
from repro.datasets.acas import phi8_property
from repro.driver import DriverConfig, RepairDriver
from repro.engine import ShardedSyrennEngine
from repro.experiments.task2_mnist_lines import (
    setup_task2,
    strengthened_line_specification,
)
from repro.experiments.task3_acas import Task3Setup, strengthened_polytope_spec
from repro.models.acas_models import build_acas_network
from repro.models.zoo import ModelZoo
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier, VerificationSpec

MAX_ROUNDS = 60


def build_mnist_workload(
    *, num_lines: int, train_per_class: int, epochs: int, margin: float, seed: int
) -> tuple:
    """The digit classifier plus the strengthened fog-line polytope spec."""
    setup = setup_task2(
        ModelZoo(),
        max_lines=num_lines,
        train_per_class=train_per_class,
        test_per_class=max(10, train_per_class // 2),
        epochs=epochs,
        seed=seed,
    )
    spec = strengthened_line_specification(setup, num_lines, margin=margin)
    return setup.network, spec, setup.layer_3_index


def build_acas_workload(
    *, num_slices: int, hidden_size: int, hidden_layers: int, margin: float, seed: int
) -> tuple:
    """An advisory network plus the strengthened φ8 plane polytope spec."""
    network = build_acas_network(
        hidden_size=hidden_size, hidden_layers=hidden_layers, seed=seed
    )
    safety_property = phi8_property()
    rng = ensure_rng(seed)
    slices = [safety_property.random_slice(rng) for _ in range(num_slices)]
    empty = np.zeros((0, network.input_size))
    setup = Task3Setup(network, safety_property, slices, empty, empty, 0)
    spec = strengthened_polytope_spec(network, setup, margin=margin)
    layer = DecoupledNetwork.from_network(network).repairable_layer_indices()[-1]
    return network, spec, layer


def run_one_shot(network, spec: PolytopeRepairSpec, layer: int, norm: str) -> dict:
    """One-shot Algorithm 2 plus an exact verification of its output."""
    start = time.perf_counter()
    result = polytope_repair(network, layer, spec, norm=norm)
    repair_seconds = time.perf_counter() - start
    record = {
        "feasible": result.feasible,
        "key_points": result.num_key_points,
        "constraint_rows": result.num_constraint_rows,
        "repair_seconds": repair_seconds,
        "timing": result.timing.as_dict(),
    }
    if result.feasible:
        report = SyrennVerifier().verify(
            result.network, VerificationSpec.from_polytope_spec(spec)
        )
        record["certified"] = report.certified
        record["delta_linf"] = result.delta_linf_norm
    else:
        record["certified"] = False
    return record


def run_driver(
    network,
    spec: PolytopeRepairSpec,
    layer: int,
    norm: str,
    *,
    ration: int | None,
    workers: int = 1,
) -> dict:
    """One full polytope-mode driver run; keeps the report for cross-checks."""
    engine = ShardedSyrennEngine(workers=workers) if workers > 1 else None
    start = time.perf_counter()
    try:
        driver = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(
                mode="polytope",
                layer_schedule=[layer],
                norm=norm,
                max_rounds=MAX_ROUNDS,
                max_new_counterexamples=ration,
            ),
            engine=engine,
        )
        report = driver.run()
    finally:
        if engine is not None:
            engine.close()
    total = time.perf_counter() - start
    per_round = [record.seconds + record.repair_seconds for record in report.rounds]
    later = per_round[1:]  # round 0 builds the caches
    return {
        "total_seconds": total,
        "rounds": report.num_rounds,
        "status": report.status,
        "certified": report.certified,
        "pool_regions": report.pool_size,
        "pool_key_points": report.rounds[-1].pool_key_points if report.rounds else 0,
        "per_round_seconds": per_round,
        "mean_round_seconds": sum(later) / len(later) if later else float("nan"),
        "lp_rows_appended": report.lp_rows_appended,
        "warm_started_rounds": report.warm_started_rounds,
        "value_only_rounds": report.value_only_rounds,
        "workers": workers,
        "timing": report.timing.as_dict(),
        "report": report,
        "pool_spec": driver.pool.point_spec(margin=driver.repair_margin),
    }


def value_parameters(network) -> list[bytes]:
    return [
        network.value.layers[index].get_parameters().tobytes()
        for index in network.repairable_layer_indices()
    ]


def norm_objective(delta: np.ndarray, norm: str) -> float:
    """The LP objective :func:`repro.lp.norms.add_norm_objective` minimizes."""
    linf, l1 = float(np.abs(delta).max()), float(np.abs(delta).sum())
    return {"linf": linf, "l1": l1, "l1+linf": delta.size * linf + l1}[norm]


def trajectory(report) -> list[tuple]:
    """Per-round pool intake: which regions were pooled when."""
    return [
        (record.new_counterexamples, record.pool_size, record.pool_key_points)
        for record in report.rounds
    ]


def check_workers(serial: dict, parallel: dict, label: str) -> None:
    """workers=4 must reproduce workers=1 byte for byte."""
    ref, cand = serial["report"], parallel["report"]
    if trajectory(ref) != trajectory(cand):
        raise AssertionError(f"{label}: round trajectories diverged")
    if (
        ref.final_report.region_statuses != cand.final_report.region_statuses
        or ref.final_report.region_margins != cand.final_report.region_margins
        or value_parameters(ref.network) != value_parameters(cand.network)
    ):
        raise AssertionError(f"{label}: runs are not byte-identical")


def check_one_shot(network, run: dict, layer: int, norm: str, label: str) -> bool:
    """The driver's final network vs a one-shot repair of its final pool.

    Demands the outcome: certified, every pooled counterexample satisfied,
    and the norm objective within ``1e-9`` relative.  Returns whether the
    two were also byte-identical.
    """
    report = run["report"]
    if report.status != "certified":
        raise AssertionError(f"{label}: driver ended {report.status}, not certified")
    if report.unsatisfied_pool_indices:
        raise AssertionError(f"{label}: the final network violates pooled counterexamples")
    one_shot = point_repair(network, layer, run["pool_spec"], norm=norm)
    base = DecoupledNetwork.from_network(network).value.layers[layer].get_parameters()
    delta = report.network.value.layers[layer].get_parameters() - base
    objective = norm_objective(delta, norm)
    if not np.isclose(objective, one_shot.objective_value, rtol=1e-9, atol=0.0):
        raise AssertionError(
            f"{label}: objective {objective!r} vs one-shot {one_shot.objective_value!r}"
        )
    return value_parameters(report.network) == value_parameters(one_shot.network)


def run_workload(
    name: str,
    network,
    spec: PolytopeRepairSpec,
    layer: int,
    *,
    norm: str,
    ration: int | None,
    repeats: int = 1,
) -> dict:
    """Benchmark one workload; returns the JSON-ready record.

    The driver is checked against a one-shot repair of its final pool
    (see :func:`check_one_shot`).
    """
    total_key_points = count_key_points(network, spec)
    one_shot = run_one_shot(network, spec, layer, norm)
    driver = run_driver(network, spec, layer, norm, ration=ration)
    byte_identical = check_one_shot(network, driver, layer, norm, f"{name}: driver vs one-shot")
    # Wall-clock is noisy on shared machines; re-time and keep the fastest
    # per-round mean (the computation is deterministic, so repeats only
    # strip scheduler jitter — the standard min-of-N estimator).  The
    # cross-checked report above stays authoritative.
    for _ in range(max(0, repeats - 1)):
        again = run_driver(network, spec, layer, norm, ration=ration)
        if again["mean_round_seconds"] < driver["mean_round_seconds"]:
            driver.update(
                {k: again[k] for k in ("mean_round_seconds", "per_round_seconds", "total_seconds")}
            )
    parallel = run_driver(network, spec, layer, norm, ration=ration, workers=4)
    check_workers(driver, parallel, f"{name}: workers=1 vs workers=4")
    for run in (driver, parallel):
        run.pop("report")
        run.pop("pool_spec")

    print(
        f"{name}: regions-keypoints={total_key_points}  "
        f"one-shot={one_shot['repair_seconds'] * 1e3:7.1f}ms "
        f"(certified={one_shot['certified']})  rounds={driver['rounds']}  "
        f"driver/round={driver['mean_round_seconds'] * 1e3:7.1f}ms  "
        f"driver-total={driver['total_seconds']:.2f}s  "
        f"workers4=byte-identical  one-shot-byte-identical={byte_identical}"
    )
    return {
        "workload": name,
        "polytopes": spec.num_polytopes,
        "key_points_full_spec": total_key_points,
        "layer_index": layer,
        "norm": norm,
        "ration": ration,
        "one_shot": one_shot,
        "driver": driver,
        "workers4": parallel,
        "workers4_byte_identical": True,
        "one_shot_byte_identical": byte_identical,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Sized flags default to None (a sentinel) so --smoke can fill in only
    # the values the user did not pass explicitly.
    parser.add_argument(
        "--lines", type=int, default=None,
        help="fog lines in the MNIST workload (default: 10; 2 with --smoke)",
    )
    parser.add_argument(
        "--train-per-class", type=int, default=None,
        help="digit training images per class (default: 30; 15 with --smoke)",
    )
    parser.add_argument(
        "--epochs", type=int, default=None,
        help="digit training epochs (default: 20; 8 with --smoke)",
    )
    parser.add_argument(
        "--margin", type=float, default=0.05,
        help="strengthened fog-line classification margin (default: 0.05)",
    )
    parser.add_argument(
        "--acas-margin", type=float, default=0.05,
        help="strengthened per-region ACAS advisory margin (default: 0.05)",
    )
    parser.add_argument(
        "--slices", type=int, default=None,
        help="φ8 slices in the ACAS workload (default: 4; 2 with --smoke)",
    )
    parser.add_argument(
        "--hidden", type=int, default=None,
        help="ACAS hidden layer width (default: 24; 12 with --smoke)",
    )
    parser.add_argument(
        "--layers", type=int, default=None,
        help="ACAS hidden layer count (default: 4; 3 with --smoke)",
    )
    parser.add_argument(
        "--ration", type=int, default=None,
        help="per-round region intake cap, MNIST workload (default: 2; 6 with --smoke)",
    )
    parser.add_argument(
        "--acas-ration", type=int, default=None,
        help="per-round region intake cap, ACAS workload (default: 2; 6 with --smoke)",
    )
    parser.add_argument("--norm", default="linf", choices=["linf", "l1", "l1+linf"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats of the serial driver run, best-of-N (default: 5; 1 with --smoke)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: small workloads (explicitly passed flags still win)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_polytope_driver.json"),
        help="where to write the JSON report (default: BENCH_polytope_driver.json)",
    )
    args = parser.parse_args()
    obs.enable()
    defaults = (
        {"lines": 2, "train_per_class": 15, "epochs": 8, "slices": 2,
         "hidden": 12, "layers": 3, "ration": 6, "acas_ration": 6, "repeats": 1}
        if args.smoke
        else {"lines": 10, "train_per_class": 30, "epochs": 20, "slices": 4,
              "hidden": 24, "layers": 4, "ration": 2, "acas_ration": 2, "repeats": 5}
    )
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)

    mnist_network, mnist_spec, mnist_layer = build_mnist_workload(
        num_lines=args.lines,
        train_per_class=args.train_per_class,
        epochs=args.epochs,
        margin=args.margin,
        seed=args.seed,
    )
    acas_network, acas_spec, acas_layer = build_acas_workload(
        num_slices=args.slices,
        hidden_size=args.hidden,
        hidden_layers=args.layers,
        margin=args.acas_margin,
        seed=args.seed + 1,
    )
    records = [
        run_workload(
            "mnist_fog_lines", mnist_network, mnist_spec, mnist_layer,
            norm=args.norm, ration=args.ration,
            repeats=args.repeats,
        ),
        run_workload(
            "acas_planes", acas_network, acas_spec, acas_layer,
            norm=args.norm, ration=args.acas_ration,
            repeats=args.repeats,
        ),
    ]
    report = {
        "benchmark": "polytope_driver",
        "margin": args.margin,
        "acas_margin": args.acas_margin,
        "seed": args.seed,
        "python": platform.python_version(),
        "results": records,
    }
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
