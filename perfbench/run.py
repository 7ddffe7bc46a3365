"""Benchmark of certified repair on the paper's three tasks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload squeezenet_pointwise --seed 1 --seconds 20 --trace 0

One invocation runs one workload in its own process.  It builds the
workload from ``--seed`` (timed several times: ``setup_s``), warms up with
one untimed repair, then repeats the repair of every instance until
``--seconds`` have passed and reports the per-instance medians.  Every
repaired network is checked outside the timed region; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with ``repro.obs`` off and no
wrappers installed.  ``--trace 1`` spends half the window on untraced
repairs and half on repairs with the layer wrappers of ``spans.py``
installed, and reports the per-layer metrics, the tracing overhead and the
share of ``driver.run`` its spans cover.  The traced repairs must be
byte-identical to the untraced ones.

Run artefacts (the span tree, per-run details, the model cache) go to
``.perfbench_out/`` and ``.perfbench_cache/`` under the repository root.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS/OpenMP pools before numpy is imported: on a small shared
# machine a spinning BLAS pool doubles CPU time and makes wall time noisy.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is timed at least this often, and until this much time was spent.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_SECONDS = 2.0
#: One reference pass (``reference_pass_seconds``) on the two-vCPU machine the
#: benchmark was tuned on, in its fast state.  That machine runs all code
#: either at this speed or about 1.5x slower, switching every second to every
#: half minute; a wall time is rescaled by the passes measured around and
#: during it, so that the switch does not read as a change of the program.
REFERENCE_SECONDS = 0.25e-3
SAMPLE_INTERVAL_SECONDS = 0.1

WORKLOAD_NAMES = ("squeezenet_pointwise", "acas_phi8_planes", "mnist_fog_lines")
#: Deterministic per-run outcomes that must repeat exactly on the same seed
#: and code, and the traced counts that join them in a traced run.
TRACED_COUNTS = (
    "lp.iterations", "nn.point_layer_evals", "core.jacobian_nnz", "syrenn.regions",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program's and the benchmark's source (keys the counts)."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def reference_pass_seconds() -> float:
    """The machine's current speed: the fastest of three reference passes.

    One pass is a fixed mix of interpreter work and small matrix products
    that never touches the program, so a change to the program cannot move
    it; only the machine's speed does.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        matrix = np.full((32, 32), 0.5)
        total = 0
        for index in range(3000):
            total += index * index
        for _ in range(30):
            matrix @ matrix
        best = min(best, time.perf_counter() - start)
    return best


def timed(function):
    """Run ``function``; returns its result, wall seconds and rescaled seconds.

    The reference pass is measured before and after the call and, through
    ``SIGALRM``, every ``SAMPLE_INTERVAL_SECONDS`` during it, so that a call
    spanning several speed switches is rescaled by the speed it actually
    ran at.  The rescaled time is the wall time less the samples' own time,
    times ``REFERENCE_SECONDS`` over the mean sample.
    """
    samples = [reference_pass_seconds()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        samples.append(reference_pass_seconds())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_SECONDS, SAMPLE_INTERVAL_SECONDS)
    start = time.perf_counter()
    try:
        result = function()
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(reference_pass_seconds())
    wall -= spent
    return result, wall, wall * REFERENCE_SECONDS * len(samples) / sum(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Repeat:
    """One repair of every instance of the workload."""

    #: Per instance: rescaled seconds (see ``timed``), wall and CPU seconds.
    seconds: list[float]
    wall_seconds: list[float]
    cpu_seconds: list[float]
    #: Per instance: status, rounds, unsatisfied pool entries, weight digest.
    outcomes: list[tuple]
    #: Kept for the first repeat only, for the checks after timing.
    reports: list | None


def repair_suite(workload, keep_reports: bool) -> Repeat:
    from workloads import delta_digest

    repeat = Repeat([], [], [], [], [] if keep_reports else None)
    for instance in workload.instances:
        gc.collect()
        cpu_start = time.process_time()
        report, wall, seconds = timed(instance.repair)
        repeat.cpu_seconds.append(time.process_time() - cpu_start)
        repeat.seconds.append(seconds)
        repeat.wall_seconds.append(wall)
        repeat.outcomes.append((
            report.status, report.num_rounds, len(report.unsatisfied_pool_indices),
            delta_digest(instance, report),
        ))
        if keep_reports:
            repeat.reports.append(report)
    return repeat


def measure(workload, seconds: float, traced: bool = False, keep_first: bool = False):
    """Repeat the suite until ``seconds`` have passed (at least once)."""
    if traced:
        import spans

    repeats, tracers = [], []
    deadline = time.perf_counter() + seconds
    while True:
        keep = keep_first and not repeats
        if traced:
            tracer = spans.Tracer(keep_tree=not tracers)
            for instance in workload.instances:
                spans.tag_layers(instance.network)
            patches = spans.install(tracer)
            try:
                repeats.append(repair_suite(workload, keep))
            finally:
                patches.restore()
                for instance in workload.instances:
                    spans.untag_layers(instance.network)
            tracers.append(tracer)
        else:
            repeats.append(repair_suite(workload, keep))
        if time.perf_counter() >= deadline:
            return repeats, tracers


def suite_seconds(repeats: list[Repeat], wall: bool = False) -> float:
    """Sum over instances of each instance's median repair time."""
    per_instance = zip(*(repeat.wall_seconds if wall else repeat.seconds for repeat in repeats))
    return sum(statistics.median(times) for times in per_instance)


def record_counts(name: str, seed: int, counts: dict, errors: list[str]) -> None:
    """Fail when a run of the same code and seed recorded other counts."""
    path = OUT_DIR / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for key, value in counts.items():
        if key in recorded and recorded[key] != value:
            errors.append(f"count {key} = {value}, an earlier run recorded {recorded[key]}")
    path.write_text(json.dumps({**recorded, **counts}, indent=1, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench_cache")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy as np

    import repro.obs as obs
    import workloads

    obs.disable()
    environment = environment_record()
    print("env " + json.dumps(environment, sort_keys=True), flush=True)

    # Untimed: model cache and lazy imports.
    workloads.prime(args.workload)
    build = workloads.BUILDERS[args.workload]
    setup_times, setup_walls = [], []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_walls) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        workload, wall, seconds = timed(lambda: build(args.seed))
        setup_times.append(seconds)
        setup_walls.append(wall)
    workload.warmup.repair()

    if args.trace:
        untraced, _ = measure(workload, args.seconds / 2, keep_first=True)
        traced, tracers = measure(workload, args.seconds / 2, traced=True)
    else:
        untraced, _ = measure(workload, args.seconds, keep_first=True)
        traced, tracers = [], []
    repeats = untraced + traced

    # Everything below is outside the timed region.  Each repair must
    # reproduce the first repeat byte for byte (traced ones included), and
    # passes when it is certified with a satisfied pool and the independent
    # check accepts the first repeat's network.
    errors: list[str] = []
    first = repeats[0]
    checked = []
    for instance, report, (status, _, unsatisfied, _) in zip(
        workload.instances, first.reports, first.outcomes
    ):
        passed = status == "certified" and unsatisfied == 0 and instance.check(report)
        checked.append(passed)
        if not passed:
            errors.append(f"instance failed its output check: status {status}")
    failed = 0
    for index, repeat in enumerate(repeats):
        for got, want, passed in zip(repeat.outcomes, first.outcomes, checked):
            if got != want:
                errors.append(f"repeat {index}: outcome {got} differs from {want}")
            failed += got != want or not passed
    attempted = len(repeats) * len(workload.instances)
    first_reports = first.reports

    deltas = [workloads.delta_linf(i, r) for i, r in zip(workload.instances, first_reports)]
    holdout_acc = float(np.mean([
        report.network.accuracy(workload.holdout_inputs, workload.holdout_labels)
        for report in first_reports
    ]))
    buggy_acc = float(np.mean([
        instance.network.accuracy(workload.holdout_inputs, workload.holdout_labels)
        for instance in workload.instances
    ]))
    rounds = sum(report.num_rounds for report in first_reports)
    counts = {
        "rounds": rounds,
        "delta_sha256": hashlib.sha256(
            "".join(digest for *_, digest in first.outcomes).encode()
        ).hexdigest(),
    }
    end_to_end = {
        "repair_s": (suite_seconds(untraced), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "delta_linf": (float(np.mean(deltas)), "1"),
        "holdout_acc": (holdout_acc, "ratio"),
        "rounds": (rounds, "count"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(workload.instances),
        "repeats": len(untraced),
        "drawdown": buggy_acc - holdout_acc,
        "buggy_holdout_acc": buggy_acc,
        "repair_wall_s": suite_seconds(untraced, wall=True),
        "setup_wall_s": statistics.median(setup_walls),
        "setup_times": setup_times,
        "suite_seconds_per_repeat": [sum(repeat.seconds) for repeat in repeats],
        "suite_wall_seconds_per_repeat": [sum(repeat.wall_seconds) for repeat in repeats],
        "instance_delta_linf": deltas,
        "instance_rounds": [report.num_rounds for report in first_reports],
        "environment": environment,
    }

    if args.trace:
        import spans

        per_repeat = [spans.layer_metrics(tracer) for tracer in tracers]
        for name in TRACED_COUNTS:
            values = {metrics[name] for metrics in per_repeat}
            if len(values) != 1:
                errors.append(f"traced repeats disagree on {name}: {sorted(values)}")
            counts[name] = per_repeat[0][name]
        layer = {
            name: statistics.median(metrics[name] for metrics in per_repeat)
            for name in per_repeat[0]
        }
        traced_seconds = suite_seconds(traced)
        layer["trace.overhead"] = traced_seconds / suite_seconds(untraced) - 1.0
        wall = sum(sum(repeat.wall_seconds) for repeat in traced)
        layer["driver.cpu_util"] = sum(sum(repeat.cpu_seconds) for repeat in traced) / wall
        metrics = {
            name: {"value": value, "unit": _unit(name)} for name, value in layer.items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        tree_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tree_path.write_text(json.dumps({"spans": tracers[0].roots}))
        details["trace_tree"] = str(tree_path.relative_to(ROOT))
        details["trace_missing"] = tracers[0].missing
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    record_counts(args.workload, args.seed, counts, errors)
    details["counts"] = counts
    details["errors"] = errors
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"end_to_end": end_to_end, **details}, indent=1, default=str)
    )

    summary = " ".join(f"{name}={value:.6g}{unit}" for name, (value, unit) in end_to_end.items())
    print(f"report {args.workload} seed={args.seed} {summary} "
          f"drawdown={details['drawdown']:.6g}ratio "
          f"repair_wall_s={details['repair_wall_s']:.6g}s setup_wall_s={details['setup_wall_s']:.6g}s "
          f"repeats={len(untraced)} "
          f"instances={len(workload.instances)}", flush=True)
    for error in errors:
        print(f"error {error}", file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_util", ".coverage", ".overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
