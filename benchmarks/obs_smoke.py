"""Observability smoke test: scrape a live daemon and archive what it says.

Boots a real repair daemon, pushes a cold/warm job pair through it (same
network twice, so the second job hits the shared partition cache), then
exercises the two telemetry surfaces end to end:

* ``GET /metrics`` — asserts the key series exist: partition-cache hits,
  the LP solve-time histogram, and per-status job counters;
* ``GET /jobs/<id>/trace`` — asserts the warm job's span tree is present
  and rooted at the job, with verify/repair spans underneath;
* ``GET /healthz`` / ``GET /readyz`` / ``GET /slo`` — asserts the daemon
  grades itself healthy and ready after serving real traffic, with every
  SLO carrying a verdict and reason;
* ``GET /jobs/<id>/profile`` — asserts the warm job's sampled folded-stack
  profile exists and its stacks reach the daemon's job-execution frames.

The payloads are written to disk (``OBS_metrics.txt``, ``OBS_trace.json``,
``OBS_health.json``, ``OBS_profile.folded``) so CI can archive them as
artifacts.

Usage::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import argparse
import json
import threading
from pathlib import Path
from tempfile import TemporaryDirectory

from bench_service import build_job
from repro.service import ServiceClient, serve


def iter_span_names(span: dict):
    yield span["name"]
    for child in span.get("children", ()):  # leaf spans omit the key
        yield from iter_span_names(child)


def run_job(client: ServiceClient, job: dict) -> str:
    job_id = client.submit(job)
    result = client.wait(job_id, timeout=600, poll_interval=0.01)
    if result["status"] != "done":
        raise AssertionError(f"job {job_id} failed: {result['error']}")
    return job_id


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=6, help="hidden width of the job network")
    parser.add_argument("--metrics-out", type=Path, default=Path("OBS_metrics.txt"),
                        help="where to write the scraped Prometheus exposition")
    parser.add_argument("--trace-out", type=Path, default=Path("OBS_trace.json"),
                        help="where to write the warm job's span tree")
    parser.add_argument("--health-out", type=Path, default=Path("OBS_health.json"),
                        help="where to write the healthz/readyz/slo documents")
    parser.add_argument("--profile-out", type=Path, default=Path("OBS_profile.folded"),
                        help="where to write the warm job's folded-stack profile")
    args = parser.parse_args()

    with TemporaryDirectory() as state_dir:
        server = serve(state_dir, port=0, job_workers=1, log_level="info")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            ready = client.readyz()
            cold_id = run_job(client, build_job(0, args.width))
            warm_id = run_job(client, build_job(0, args.width))  # same fingerprint
            metrics = client.metrics()
            trace = client.trace(warm_id)
            healthz = client.healthz()
            slo = client.slo()
            profile = client.profile(warm_id)
        finally:
            server.shutdown()
            server.server_close()
            server.service.stop()
            thread.join(timeout=10)

    args.metrics_out.write_text(metrics)
    args.trace_out.write_text(json.dumps(trace, indent=2) + "\n")
    args.health_out.write_text(
        json.dumps({"readyz": ready, "healthz": healthz, "slo": slo}, indent=2) + "\n"
    )
    args.profile_out.write_text(profile["folded"] + "\n")

    # --- the assertions CI actually cares about -------------------------
    required_series = [
        # the warm job's verify rounds hit the cold job's cached partitions
        'repro_cache_requests_total{result="hit",tier="memory"}',
        # every LP solve lands in the solve-time histogram
        "repro_lp_solve_seconds_bucket",
        'repro_service_jobs_total{status="done"}',
        "repro_driver_rounds_total",
    ]
    missing = [series for series in required_series if series not in metrics]
    if missing:
        raise AssertionError(f"/metrics is missing expected series: {missing}")

    names = list(iter_span_names(trace["root"]))
    if trace["trace_id"] != f"{warm_id}-trace":
        raise AssertionError(f"trace id {trace['trace_id']!r} not derived from job id")
    if "driver.verify" not in names or "driver.run" not in names:
        raise AssertionError(f"trace lacks driver spans: {names}")

    if not ready["ready"] or not all(ready["checks"].values()):
        raise AssertionError(f"daemon not ready: {ready}")
    if healthz["status"] not in ("healthy", "degraded"):
        raise AssertionError(f"daemon unhealthy after a clean job pair: {healthz}")
    slo_names = {entry["name"] for entry in slo["slos"]}
    if "job_p99_seconds" not in slo_names or "job_failure_ratio" not in slo_names:
        raise AssertionError(f"/slo is missing stock objectives: {sorted(slo_names)}")
    if any(entry["status"] == "unhealthy" for entry in slo["slos"]):
        raise AssertionError(f"an SLO grades unhealthy after clean traffic: {slo}")
    if profile["samples"] < 1 or not profile["folded"]:
        raise AssertionError(f"profile empty for {warm_id}: {profile['samples']} samples")
    if "_execute" not in profile["folded"]:
        raise AssertionError("profile stacks never reached the job-execution frames")

    print(f"cold={cold_id} warm={warm_id}")
    print(f"wrote {args.metrics_out} ({len(metrics.splitlines())} lines)")
    print(f"wrote {args.trace_out} ({len(names)} spans)")
    print(f"wrote {args.health_out} (status={healthz['status']}, ready={ready['ready']})")
    print(f"wrote {args.profile_out} ({profile['samples']} samples)")
    print("obs smoke OK")


if __name__ == "__main__":
    main()
