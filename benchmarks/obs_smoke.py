"""Observability smoke test: scrape a live daemon and archive what it says.

Boots a real repair daemon, pushes a cold/warm job pair through it (same
network twice, so the second job hits the shared partition cache), then
exercises its telemetry surfaces end to end:

* ``GET /metrics`` — asserts the key series exist: partition-cache hits,
  the LP solve-time histogram, and per-status job counters;
* ``GET /jobs/<id>/trace`` — asserts the warm job's span tree is present
  and rooted at the job, with verify/repair spans underneath;
* ``GET /readyz`` — asserts the daemon reports ready, with every check
  passing.

The payloads are written to disk (``OBS_metrics.txt``, ``OBS_trace.json``,
and ``OBS_readyz.json`` next to the metrics file) so CI can archive them
as artifacts.

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
        finally:
            server.shutdown()
            server.server_close()
            server.service.stop()
            thread.join(timeout=10)

    args.metrics_out.write_text(metrics)
    args.trace_out.write_text(json.dumps(trace, indent=2) + "\n")
    readyz_out = args.metrics_out.with_name("OBS_readyz.json")
    readyz_out.write_text(json.dumps(ready, indent=2) + "\n")

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

    print(f"cold={cold_id} warm={warm_id}")
    print(f"wrote {args.metrics_out} ({len(metrics.splitlines())} lines)")
    print(f"wrote {args.trace_out} ({len(names)} spans)")
    print(f"wrote {readyz_out} (ready={ready['ready']})")
    print("obs smoke OK")


if __name__ == "__main__":
    main()
