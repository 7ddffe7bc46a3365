"""Repair-as-a-service benchmark: job throughput and latency, cold vs warm.

Starts a real :class:`repro.service.RepairService` behind its HTTP
front-end and pushes a stream of small certified-repair jobs through it,
in two phases over the same specification geometry:

* **cold** — every job carries a *different* network (fresh seed, fresh
  parameter fingerprint), so each one misses the shared partition cache
  and pays for its own SyReNN decompositions;
* **warm** — every job carries the *same* network (one warm-up job primes
  the cache), so each one's verification rounds hit the shared
  fingerprint-keyed cache and skip decomposition entirely.

Since exact verification is decomposition-dominated on these workloads,
warm jobs should be markedly faster — this is the speedup a long-lived
daemon buys over one-process-per-repair, and the report records it as
``warm_speedup`` (mean cold latency / mean warm latency).

Latencies are measured *server-side* (the daemon's monotonic
``latency_seconds`` field), so neither client polling granularity nor
wall-clock adjustments pollute p50/p99.  Jobs are submitted sequentially; throughput is jobs divided by
phase wall-clock.

The cross-checks are strict and always on: every job must certify, all
warm jobs — identical inputs through the daemon's shared partition cache — must
return **byte-identical** repaired parameters, and the warm phase must score
at least one partition-cache hit per job.  The wall-clock assertion
(``--min-warm-speedup``) is disabled in CI, where shared runners make
timing ratios unreliable.

Results are written as JSON with the same report shape as the other
benchmarks (default ``BENCH_service.json``) so CI can archive the
trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_service.py --smoke   # CI smoke
"""

from __future__ import annotations

import argparse
import base64
import json
import platform
import threading
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

import repro.obs as obs
from conftest import telemetry_document
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.service import ServiceClient, make_job, serve
from repro.utils.rng import ensure_rng
from repro.utils.serialization import decode_network
from repro.verify import VerificationSpec

MAX_ROUNDS = 8


def build_job(seed: int, width: int) -> dict:
    """One small certified-repair job: a seeded network over the unit plane."""
    rng = ensure_rng(seed)
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, width, rng),
            ReLULayer(width),
            FullyConnectedLayer.from_shape(width, width, rng),
            ReLULayer(width),
            FullyConnectedLayer.from_shape(width, 3, rng),
        ]
    )
    preds = network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_plane(
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],
        HPolytope.argmax_region(3, winner, 1e-3),
    )
    return make_job("repair", network, spec, config={"max_rounds": MAX_ROUNDS})


def run_phase(client: ServiceClient, jobs: list[dict], label: str) -> dict:
    """Submit a job stream sequentially; returns server-side latency stats."""
    results = []
    phase_start = time.perf_counter()
    for job in jobs:
        job_id = client.submit(job)
        result = client.wait(job_id, timeout=600, poll_interval=0.01)
        if result["status"] != "done":
            raise AssertionError(f"{label} job {job_id} failed: {result['error']}")
        report = result["result"]["report"]
        if report["status"] != "certified":
            raise AssertionError(
                f"{label} job {job_id} ended {report['status']!r}, expected certified"
            )
        status = client.status(job_id)
        results.append(
            {
                "job_id": job_id,
                # Monotonic, computed daemon-side; the wall-clock *_at
                # timestamps are for humans and can jump under NTP.
                "latency_seconds": status["latency_seconds"],
                "rounds": report["num_rounds"],
                "network": result["result"]["network"],
            }
        )
    phase_seconds = time.perf_counter() - phase_start
    latencies = np.array([entry["latency_seconds"] for entry in results])
    # Exact order statistics: each quantile is a latency some job actually
    # had (interpolating over a handful of jobs would report a "p99" no job
    # ever experienced).  The sample count n rides along so downstream
    # consumers (the sentinel, humans) can judge how much each is worth.
    p50, p99 = np.quantile(latencies, (0.5, 0.99), method="inverted_cdf")
    stats = {
        "jobs": len(jobs),
        "phase_seconds": phase_seconds,
        "jobs_per_second": len(jobs) / phase_seconds,
        "latency_mean_ms": float(latencies.mean() * 1e3),
        "latency_p50_ms": float(p50 * 1e3),
        "latency_p99_ms": float(p99 * 1e3),
        "latency_quantile_n": len(latencies),
        "latencies_ms": [float(value * 1e3) for value in latencies],
        "rounds": [entry["rounds"] for entry in results],
    }
    print(
        f"{label:>4}: {stats['jobs_per_second']:6.2f} jobs/s  "
        f"p50={stats['latency_p50_ms']:7.1f}ms  p99={stats['latency_p99_ms']:7.1f}ms  "
        f"mean={stats['latency_mean_ms']:7.1f}ms  (n={len(latencies)} jobs)"
    )
    return {"stats": stats, "results": results}


def cross_check_warm_identical(results: list[dict]) -> None:
    """All warm jobs carried identical inputs: their outputs must match bytewise."""
    networks = [decode_network(base64.b64decode(entry["network"])) for entry in results]
    reference = networks[0]
    for layer_index in reference.repairable_layer_indices():
        reference_bytes = reference.value.layers[layer_index].get_parameters().tobytes()
        for candidate in networks[1:]:
            if candidate.value.layers[layer_index].get_parameters().tobytes() != reference_bytes:
                raise AssertionError(
                    f"warm jobs disagree at layer {layer_index}: the shared cache "
                    "changed a job's bytes"
                )


def cache_hits(stats: dict) -> int:
    """Hits over both tiers of a ``/health`` cache document."""
    return stats["memory"]["hits"] + stats["disk"]["hits"]


def check_warm_hits(primed: dict, finished: dict, num_jobs: int) -> None:
    """Every warm job must be served by the shared cache, timing aside.

    A count, not a clock: each warm job verifies geometry the priming job
    already decomposed, so the warm phase scores at least one hit per job.
    A cache payload the verifier stopped decoding would score none.
    """
    hits = cache_hits(finished) - cache_hits(primed)
    print(f"warm-phase cache hits: {hits} over {num_jobs} jobs")
    if hits < num_jobs:
        raise AssertionError(
            f"warm phase scored {hits} partition-cache hits over {num_jobs} jobs; "
            "the shared cache stopped serving decompositions"
        )


def run_benchmark(
    *, num_jobs: int, width: int, job_workers: int, min_warm_speedup: float | None
) -> dict:
    cold_jobs = [build_job(seed, width) for seed in range(1, num_jobs + 1)]
    warm_jobs = [build_job(0, width) for _ in range(num_jobs)]

    with TemporaryDirectory() as state_dir:
        server = serve(state_dir, port=0, job_workers=job_workers)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            cold = run_phase(client, cold_jobs, "cold")
            # Prime the cache once so every measured warm job is a pure hit.
            run_phase(client, warm_jobs[:1], "prim")
            primed = client.health()["cache"]
            warm = run_phase(client, warm_jobs, "warm")
            cross_check_warm_identical(warm["results"])
            cache_stats = client.health()["cache"]
            check_warm_hits(primed, cache_stats, num_jobs)
        finally:
            server.shutdown()
            server.server_close()
            server.service.stop()
            thread.join(timeout=10)

    warm_speedup = cold["stats"]["latency_mean_ms"] / max(
        warm["stats"]["latency_mean_ms"], 1e-9
    )
    print(f"warm-cache speedup: {warm_speedup:.1f}x (fingerprint-matched jobs)")
    if min_warm_speedup is not None and warm_speedup < min_warm_speedup:
        raise AssertionError(
            f"warm speedup {warm_speedup:.2f}x below the required {min_warm_speedup:.2f}x"
        )
    for phase in (cold, warm):
        for entry in phase["results"]:
            entry.pop("network")  # keep the JSON report small
    return {
        "benchmark": "service",
        "network": {"width": width, "input_size": 2, "classes": 3},
        "job_workers": job_workers,
        "python": platform.python_version(),
        "cold": cold["stats"],
        "warm": warm["stats"],
        "warm_speedup": warm_speedup,
        "cache": cache_stats,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Sized flags default to None (a sentinel) so --smoke can fill in only
    # the values the user did not pass explicitly.
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="jobs per phase (default: 8; 3 with --smoke)",
    )
    parser.add_argument(
        "--width", type=int, default=None,
        help="hidden-layer width of each job's network (default: 48; 16 with --smoke)",
    )
    parser.add_argument(
        "--job-workers", type=int, default=2,
        help="concurrent jobs in the daemon (default: 2)",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=1.2,
        help="fail if warm-cache jobs are not this much faster than cold "
        "(pass 0 to disable; default: 1.2)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke: a small stream (explicitly passed flags still win)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_service.json"),
        help="where to write the JSON report (default: BENCH_service.json)",
    )
    args = parser.parse_args()
    obs.enable()
    defaults = {"jobs": 3, "width": 16} if args.smoke else {"jobs": 8, "width": 48}
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    report = run_benchmark(
        num_jobs=args.jobs,
        width=args.width,
        job_workers=args.job_workers,
        min_warm_speedup=args.min_warm_speedup or None,
    )
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
