"""Tests for repair-as-a-service (repro.service).

Three layers, in increasing integration depth:

* the JSON wire protocol (jobs validate and round-trip losslessly);
* the in-process :class:`RepairService` (a daemon job is byte-identical to
  the same run executed standalone, for every verifier kind — including
  with two jobs multiplexed concurrently over the shared partition cache);
* the HTTP daemon end-to-end (submit → poll → result via
  :class:`ServiceClient`, and crash recovery: SIGKILL the daemon mid-job,
  restart it on the same state directory, and watch the job resume from the
  checkpointed counterexample pool instead of rediscovering it).
"""

from __future__ import annotations

import http.client
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.driver import DriverConfig, RepairDriver
from repro.exceptions import SpecificationError
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment
from repro.service import (
    RepairService,
    ServiceClient,
    ServiceError,
    decode_network_b64,
    make_job,
    parse_job,
    serve,
)
from repro.syrenn.regions import geometry_digest
from repro.utils.rng import ensure_rng
from repro.verify import Box, SyrennVerifier, VerificationSpec, make_verifier

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def plane_scenario(seed: int) -> tuple[Network, VerificationSpec]:
    """A seeded scenario the exact-verifier driver certifies in a few rounds."""
    rng = ensure_rng(seed)
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 6, rng),
            ReLULayer(6),
            FullyConnectedLayer.from_shape(6, 3, rng),
        ]
    )
    preds = network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_plane(
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],
        HPolytope.argmax_region(3, winner, 1e-4),
    )
    spec.add_box([-0.5, -1.0], [0.5, 1.0], HPolytope.argmax_region(3, winner, 1e-4))
    return network, spec


def plane_payload(job: dict) -> dict:
    """The wire payload of a ``plane_scenario`` job's plane region."""
    return job["spec"]["regions"][0]["region"]


def slow_grid_job(seed: int = 12345) -> dict:
    """A repair job whose rounds take seconds: a dense grid sweep per round.

    Used by the crash-recovery test, which needs a wide window in which the
    daemon is mid-job (at least one round persisted, more still to run).
    """
    rng = ensure_rng(seed)
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 6, rng),
            ReLULayer(6),
            FullyConnectedLayer.from_shape(6, 3, rng),
        ]
    )
    preds = network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_box([-1.0, -1.0], [1.0, 1.0], HPolytope.argmax_region(3, winner, 0.2))
    return make_job(
        "repair",
        network,
        spec,
        verifier={"kind": "grid", "resolution": 1400, "max_points_per_region": 1400 * 1400},
        config={"max_rounds": 10},
    )


def parameter_bytes(network) -> list[bytes]:
    return [
        layer.get_parameters().tobytes()
        for layer in network.value.layers
        if layer.num_parameters
    ]


def raw_parameter_bytes(network: Network) -> list[bytes]:
    return [
        layer.get_parameters().tobytes()
        for layer in network.layers
        if layer.num_parameters
    ]


TIMING_KEYS = {
    "seconds",
    "repair_seconds",
    "timing",
    # Telemetry rides along with reports/rounds but is run-specific
    # (wall-clock histograms, per-job labels), never run-defining.
    "telemetry",
    "latency_seconds",
    "queued_seconds",
    "run_seconds",
}


def comparable(summary: dict) -> dict:
    """A report dictionary's run-defining content, wall-clock stripped."""
    summary = {k: v for k, v in summary.items() if k not in TIMING_KEYS}
    if summary.get("final_report"):
        summary["final_report"] = {
            k: v for k, v in summary["final_report"].items() if k != "seconds"
        }
    def normalize(record: dict) -> dict:
        record = {k: v for k, v in record.items() if k not in TIMING_KEYS}
        if isinstance(record.get("drawdown"), float) and np.isnan(record["drawdown"]):
            record["drawdown"] = None  # NaN compares unequal after a JSON trip
        return record

    summary["rounds"] = [normalize(record) for record in summary["rounds"]]
    return summary


class TestProtocol:
    def test_job_round_trips_through_json(self):
        network, spec = plane_scenario(7)
        job = make_job(
            "repair",
            network,
            spec,
            verifier={"kind": "random", "num_samples": 64, "seed": 3},
            config=DriverConfig(max_rounds=4, norm="l1"),
        )
        parsed = parse_job(json.loads(json.dumps(job)))
        assert parsed.kind == "repair"
        assert parsed.verifier_kind == "random"
        assert parsed.verifier_params == {"num_samples": 64, "seed": 3}
        assert parsed.config == DriverConfig(max_rounds=4, norm="l1")
        assert parsed.spec.num_regions == spec.num_regions
        assert raw_parameter_bytes(parsed.network) == raw_parameter_bytes(network)

    def test_verifier_as_bare_kind_string(self):
        network, spec = plane_scenario(7)
        job = make_job("verify", network, spec, verifier="grid")
        assert parse_job(job).verifier_kind == "grid"

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda job: job.update(kind="train"), "job kind"),
            (lambda job: job.pop("network"), '"network"'),
            (lambda job: job.pop("spec"), '"spec"'),
            (lambda job: job.update(network="!!!not-base64!!!"), "undecodable network"),
            (lambda job: job.update(verifier={"kind": "exhaustive"}), "unknown verifier"),
            (lambda job: job.update(version=99), "protocol version"),
            (lambda job: job.update(config={"max_round": 1}), "unknown driver config"),
            (lambda job: job.update(config=5), "must be a JSON object, got int"),
            (lambda job: job.update(config={"max_rounds": "x"}), "malformed driver config field"),
            (lambda job: job.update(verifier={"kind": "syrenn", "bogus": 1}), "'bogus'"),
            (lambda job: job.update(verifier={"kind": "grid", "resolution": 1}), "resolution must be"),
            (lambda job: job.update(verifier={"kind": "random", "num_samples": 0}), "num_samples must"),
            (lambda job: job.update(verifier={"kind": "syrenn", "engine": 1}), "'engine'"),
            (lambda job: job.update(verifier={"kind": "syrenn", "cache": 1}), "runtime resource"),
            (lambda job: job.update(verifier={"kind": "syrenn", "value_only": True}), "'value_only'"),
            (
                lambda job: job.update(verifier={"kind": "syrenn", "cache_partitions": False}),
                "'cache_partitions'",
            ),
            (lambda job: job.update(config={"delta_bound": -1.0}), "delta_bound must be"),
            (lambda job: job.update(config={"delta_bound": float("nan")}), "delta_bound must be"),
            (lambda job: job.update(config={"repair_margin": float("nan")}), "repair_margin must be"),
            (lambda job: job.update(config={"norm": "l7"}), "norm must be"),
            (lambda job: job.update(config={"budget_seconds": float("nan")}), "budget_seconds must be"),
            (lambda job: plane_payload(job).update(vertices=[[-1, -1], [1, -1]]), "at least three"),
            (
                lambda job: plane_payload(job).update(vertices=[[-1, -1], [1, 1], [-1, -1], [1, 1]]),
                "at least three",
            ),
            (
                lambda job: plane_payload(job).update(vertices=[[-1, -1, 0], [1, -1, 0], [1, 1, 0]]),
                "region 0 has input dimension 3",
            ),
            (lambda job: plane_payload(job)["vertices"][1].__setitem__(0, float("nan")), "finite"),
            (lambda job: plane_payload(job).update(vertices=[[-1, -1], [1], [1, 1]]), "malformed spec"),
            (lambda job: plane_payload(job).update(vertices=[-1, -1, 1]), r"\(k, n\) array"),
            (
                lambda job: job["spec"]["regions"][1]["region"].update(lower=[-1] * 3, upper=[1] * 3),
                "region 1 has input dimension 3",
            ),
            (
                lambda job: job["spec"]["regions"][0].update(constraint={"a": [[1.0, -1.0]], "b": [0.0]}),
                "constraint is over dimension 2",
            ),
            (lambda job: job["spec"]["regions"][1]["region"]["lower"].__setitem__(0, float("nan")), "finite"),
            (
                lambda job: job["spec"]["regions"][1].update(
                    region={"kind": "segment", "start": [0.0, float("inf")], "end": [1.0, 1.0]}
                ),
                "finite",
            ),
            (lambda job: job["spec"]["regions"][0]["constraint"]["b"].__setitem__(0, float("nan")), "finite"),
        ],
    )
    def test_malformed_jobs_rejected(self, mutate, match):
        network, spec = plane_scenario(7)
        job = make_job("repair", network, spec)
        mutate(job)
        with pytest.raises(SpecificationError, match=match):
            parse_job(job)

    def test_plane_vertices_deduplicated_on_the_wire(self):
        network, spec = plane_scenario(7)
        job = make_job("verify", network, spec)
        square = plane_payload(job)["vertices"]
        plane_payload(job)["vertices"] = square + square[:2]
        parsed = parse_job(job).spec.regions[0].region
        assert parsed.tobytes() == np.asarray(square, dtype=np.float64).tobytes()

    def test_spec_round_trip_keeps_geometry_digests(self):
        network, spec = plane_scenario(7)
        spec.add_plane([[0.0, -0.0], [0.5, 0.0], [0.0, 0.5]], spec.regions[0].constraint)
        spec.add_segment(LineSegment([-1.0, 0.25], [1.0, -0.0]), spec.regions[0].constraint)
        decoded = VerificationSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        for entry, back in zip(spec.regions, decoded.regions):
            if not isinstance(entry.region, Box):
                assert geometry_digest(back.region) == geometry_digest(entry.region)
        assert parse_job(make_job("verify", network, spec)).spec.num_regions == 4

    def test_config_only_applies_to_repair_jobs(self):
        network, spec = plane_scenario(7)
        job = make_job("verify", network, spec)
        job["config"] = {"max_rounds": 3}
        with pytest.raises(SpecificationError, match="only applies to repair"):
            parse_job(job)

    def test_network_payload_round_trips_bytes(self):
        network, _ = plane_scenario(7)
        job_network = decode_network_b64(make_job("verify", network, VerificationSpec())["network"])
        assert raw_parameter_bytes(job_network) == raw_parameter_bytes(network)


class TestRepairServiceInProcess:
    def test_concurrent_jobs_match_standalone_runs_byte_for_byte(self, tmp_path):
        """Two jobs multiplexed over one shared cache == two standalone runs."""
        scenarios = [plane_scenario(12345), plane_scenario(999)]
        config = DriverConfig(max_rounds=8)
        baselines = [
            RepairDriver(network, spec, SyrennVerifier(), config=config).run()
            for network, spec in scenarios
        ]
        service = RepairService(tmp_path / "state", job_workers=2)
        try:
            job_ids = [
                service.submit(make_job("repair", network, spec, config=config))
                for network, spec in scenarios
            ]
            results = [service.wait(job_id, timeout=240) for job_id in job_ids]
        finally:
            service.stop()
        for baseline, result in zip(baselines, results):
            assert result["status"] == "done"
            assert baseline.status == "certified"
            served_report = result["result"]["report"]
            assert comparable(served_report) == comparable(baseline.as_dict())
            served_network = decode_network_b64(result["result"]["network"])
            assert parameter_bytes(served_network) == parameter_bytes(baseline.network)

    @pytest.mark.parametrize(
        "verifier",
        [
            {"kind": "random", "num_samples": 64, "seed": 3},
            {"kind": "grid", "resolution": 8},
            {"kind": "syrenn"},
        ],
        ids=lambda verifier: verifier["kind"],
    )
    def test_verify_job_matches_standalone(self, tmp_path, verifier):
        """A verify job reports exactly what the same verifier does standalone."""
        network, spec = plane_scenario(12345)
        params = {key: value for key, value in verifier.items() if key != "kind"}
        standalone = make_verifier(verifier["kind"], **params).verify(network, spec)
        service = RepairService(tmp_path / "state")
        try:
            job_id = service.submit(make_job("verify", network, spec, verifier=verifier))
            result = service.wait(job_id, timeout=60)
        finally:
            service.stop()
        assert result["status"] == "done"
        served = dict(result["result"]["report"])
        expected = standalone.as_dict()
        served.pop("seconds")
        expected.pop("seconds")
        assert served == expected

    def test_verify_job(self, tmp_path):
        network, spec = plane_scenario(12345)
        service = RepairService(tmp_path / "state")
        try:
            job_id = service.submit(
                make_job("verify", network, spec, verifier={"kind": "grid", "resolution": 8})
            )
            result = service.wait(job_id, timeout=60)
        finally:
            service.stop()
        report = result["result"]["report"]
        assert result["status"] == "done"
        assert report["verifier"] == "grid"
        assert report["num_regions"] == spec.num_regions

    def test_runtime_failure_marks_job_failed(self, tmp_path):
        """A job that explodes mid-run fails that job, not the worker.

        A spec with no regions passes submit (its dimensions are vacuously
        right) and only the verifier refuses it.
        """
        network, _ = plane_scenario(12345)
        bad_spec = VerificationSpec()
        service = RepairService(tmp_path / "state")
        try:
            job_id = service.submit(make_job("verify", network, bad_spec))
            result = service.wait(job_id, timeout=60)
            assert result["status"] == "failed"
            assert "SpecificationError" in result["error"]
            # The worker survived: a good job still completes afterwards.
            network, spec = plane_scenario(12345)
            ok = service.wait(service.submit(make_job("verify", network, spec)), timeout=60)
            assert ok["status"] == "done"
        finally:
            service.stop()

    def test_round_records_stream_while_running(self, tmp_path):
        network, spec = plane_scenario(12345)
        service = RepairService(tmp_path / "state")
        try:
            job_id = service.submit(
                make_job("repair", network, spec, config={"max_rounds": 8})
            )
            result = service.wait(job_id, timeout=240)
            status = service.status(job_id)
        finally:
            service.stop()
        assert result["status"] == "done"
        assert status["rounds"]
        assert status["rounds"][0]["round_index"] == 0
        assert "result" not in status  # polling stays cheap
        # ... and the persisted document survives a service restart.
        reloaded = RepairService(tmp_path / "state")
        try:
            assert reloaded.result(job_id)["result"]["report"]["status"] == "certified"
        finally:
            reloaded.stop()

    def test_unknown_and_unfinished_jobs(self, tmp_path):
        service = RepairService(tmp_path / "state")
        try:
            with pytest.raises(KeyError):
                service.status("job-999999")
            health = service.health()
            assert health["ok"] and health["jobs"] == {}
        finally:
            service.stop()


@pytest.fixture
def http_server(tmp_path):
    server = serve(tmp_path / "state", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), server
    finally:
        server.shutdown()
        server.server_close()
        server.service.stop()
        thread.join(timeout=10)


class TestHTTPEndToEnd:
    def test_submit_poll_result(self, http_server):
        client, _ = http_server
        network, spec = plane_scenario(12345)
        baseline = RepairDriver(
            network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=8)
        ).run()

        assert client.health()["ok"]
        job_id = client.submit(make_job("repair", network, spec, config={"max_rounds": 8}))
        result = client.wait(job_id, timeout=240)
        assert result["status"] == "done"
        assert comparable(result["result"]["report"]) == comparable(baseline.as_dict())
        served = decode_network_b64(result["result"]["network"])
        assert parameter_bytes(served) == parameter_bytes(baseline.network)

        status = client.status(job_id)
        assert status["status"] == "done"
        assert [r["round_index"] for r in status["rounds"]] == list(range(len(status["rounds"])))
        assert any(job["id"] == job_id for job in client.jobs())

    def test_http_error_codes(self, http_server):
        client, _ = http_server
        with pytest.raises(ServiceError) as not_found:
            client.status("job-424242")
        assert not_found.value.status == 404
        with pytest.raises(ServiceError) as bad_job:
            client.submit({"kind": "repair"})
        assert bad_job.value.status == 400

    def test_removed_knob_is_rejected_at_submit(self, http_server):
        """A job naming a removed driver knob is a 400, never a failed job."""
        client, _ = http_server
        network, spec = plane_scenario(7)
        known = {entry["id"] for entry in client.jobs()}
        for config in (
            {"sparse": True},
            {"backend": "simplex"},
            {"backend": "race:scipy,simplex"},
        ):
            job = make_job("repair", network, spec)
            job["config"] = config  # past the client-side validation
            with pytest.raises(ServiceError, match="removed") as rejected:
                client.submit(job)
            assert rejected.value.status == 400
        assert {entry["id"] for entry in client.jobs()} == known

    def test_non_finite_region_is_a_400_at_submit(self, http_server):
        """A NaN box travels as a JSON ``NaN`` literal and is refused, not certified."""
        client, _ = http_server
        network, spec = plane_scenario(7)
        known = {entry["id"] for entry in client.jobs()}
        job = make_job("verify", network, spec)
        job["spec"]["regions"][1]["region"]["lower"][0] = float("nan")
        with pytest.raises(ServiceError, match="finite") as rejected:
            client.submit(job)
        assert rejected.value.status == 400
        assert {entry["id"] for entry in client.jobs()} == known

    def test_malformed_config_is_a_400_not_a_dropped_connection(self, http_server):
        client, _ = http_server
        network, spec = plane_scenario(7)
        job = make_job("repair", network, spec)
        job["config"] = 5
        with pytest.raises(ServiceError, match="JSON object") as rejected:
            client.submit(job)
        assert rejected.value.status == 400
        assert client.health()["jobs"] == {}


@pytest.mark.slow
class TestDaemonCrashRecovery:
    def _start_daemon(self, state_dir: Path, port: int = 0) -> tuple[subprocess.Popen, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            # --log-level off: the structured stderr log would interleave
            # with the stdout banner on the merged pipe (tested in-process
            # with a dedicated stream instead).
            [sys.executable, "-u", "-m", "repro.service",
             "--state-dir", str(state_dir), "--port", str(port), "--job-workers", "1",
             "--log-level", "off"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        # Structured JSON log lines (stderr, merged above) may precede the
        # stdout banner; scan until the banner itself appears.
        lines: list[str] = []

        def _find_banner() -> None:
            for line in process.stdout:
                lines.append(line)
                if line.startswith("listening on "):
                    return

        reader = threading.Thread(target=_find_banner, daemon=True)
        reader.start()
        reader.join(timeout=60)
        banner = [line for line in lines if line.startswith("listening on ")]
        assert banner, f"daemon did not come up: {lines}"
        return process, banner[0].split("listening on ", 1)[1].strip()

    def test_sigkill_mid_job_then_resume_from_checkpoint(self, tmp_path):
        state_dir = tmp_path / "state"
        job = slow_grid_job()
        process, url = self._start_daemon(state_dir)
        try:
            client = ServiceClient(url)
            job_id = client.submit(job)
            # Wait until at least one round has been persisted, then pull the
            # plug while the next round's (multi-second) verify is running.
            deadline = time.monotonic() + 120
            while True:
                status = client.status(job_id)
                if status["rounds"]:
                    break
                if status["status"] in ("done", "failed") or time.monotonic() > deadline:
                    pytest.skip(f"no mid-job window to kill in: {status['status']}")
                time.sleep(0.05)
            process.kill()
            process.wait(timeout=30)
        finally:
            process.kill()
            process.stdout.close()
            process.wait(timeout=30)

        on_disk = json.loads((state_dir / "jobs" / f"{job_id}.json").read_text())
        assert on_disk["status"] == "running"
        pre_kill_rounds = on_disk["rounds"]
        assert pre_kill_rounds and pre_kill_rounds[0]["new_counterexamples"] > 0
        assert (state_dir / "jobs" / f"{job_id}.pool.npz").exists()

        process, url = self._start_daemon(state_dir)
        try:
            result = ServiceClient(url).wait(job_id, timeout=240)
            assert result["status"] == "done"
            resumed_rounds = result["result"]["report"]["rounds"]
            # The resumed driver loaded the checkpointed pool: its first round
            # rediscovers the same grid violations, every one a duplicate.
            assert resumed_rounds[0]["new_counterexamples"] == 0
            assert resumed_rounds[0]["pool_size"] >= pre_kill_rounds[0]["pool_size"]
            assert resumed_rounds[0]["repair_attempted"]
        finally:
            process.terminate()
            try:
                process.wait(timeout=30)
            finally:
                process.kill()
                process.stdout.close()
                process.wait(timeout=30)


class TestTelemetrySurfaces:
    """/metrics, /jobs/<id>/trace, structured logs, and monotonic latencies."""

    def test_metrics_endpoint_exposes_key_series(self, http_server):
        client, server = http_server
        network, spec = plane_scenario(12345)
        job_id = client.submit(make_job("repair", network, spec, config={"max_rounds": 8}))
        assert client.wait(job_id, timeout=240)["status"] == "done"
        text = client.metrics()
        # The registry is process-wide by design, so earlier tests may have
        # already counted jobs: assert the series, not an absolute value.
        import re as _re

        done = _re.search(r'repro_service_jobs_total\{status="done"\} (\d+)', text)
        assert done is not None and int(done.group(1)) >= 1
        assert "# TYPE repro_lp_solve_seconds histogram" in text
        assert "repro_lp_solve_seconds_bucket" in text
        assert "repro_cache_requests_total" in text
        assert "repro_driver_rounds_total" in text
        # Correct exposition content type on the wire.
        import urllib.request

        with urllib.request.urlopen(f"{client.base_url}/metrics", timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")

    def test_trace_round_trips_through_http(self, http_server):
        client, _ = http_server
        network, spec = plane_scenario(12345)
        job_id = client.submit(make_job("repair", network, spec, config={"max_rounds": 8}))
        assert client.wait(job_id, timeout=240)["status"] == "done"
        trace = client.trace(job_id)
        assert trace["trace_id"] == f"{job_id}-trace"
        root = trace["root"]
        assert root["name"] == "job.repair"
        assert root["attributes"]["job_id"] == job_id

        def names(span):
            yield span["name"]
            for child in span.get("children", ()):
                yield from names(child)

        seen = set(names(root))
        assert {"driver.run", "driver.verify", "driver.repair", "lp.solve"} <= seen
        with pytest.raises(ServiceError) as missing:
            client.trace("job-424242")
        assert missing.value.status == 404

    def test_structured_log_correlates_job_and_trace(self, tmp_path):
        import io

        stream = io.StringIO()
        network, spec = plane_scenario(12345)
        service = RepairService(tmp_path / "state", log_level="info", log_stream=stream)
        try:
            job_id = service.submit(make_job("verify", network, spec))
            assert service.wait(job_id, timeout=60)["status"] == "done"
        finally:
            service.stop()
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert all({"ts", "level", "event"} <= set(event) for event in events)
        submitted = [e for e in events if e["event"] == "job_submitted"]
        assert submitted and submitted[0]["job_id"] == job_id
        states = [e for e in events if e["event"] == "job_state"]
        assert [e["status"] for e in states] == ["running", "done"]
        assert all(e["trace_id"] == f"{job_id}-trace" for e in states)

    def test_latencies_are_monotonic_and_consistent(self, tmp_path):
        network, spec = plane_scenario(12345)
        service = RepairService(tmp_path / "state")
        try:
            job_id = service.submit(make_job("verify", network, spec))
            assert service.wait(job_id, timeout=60)["status"] == "done"
            status = service.status(job_id)
        finally:
            service.stop()
        assert status["queued_seconds"] >= 0.0
        assert status["run_seconds"] > 0.0
        # End-to-end latency covers the queue wait plus the run itself.
        assert status["latency_seconds"] >= status["run_seconds"]


class TestHealthSurfaces:
    """/readyz on a live daemon, and the routes that no longer exist."""

    def test_readyz_reports_accepting_jobs_and_state_dir(self, http_server):
        client, _ = http_server
        ready = client.readyz()
        assert ready["ready"] is True
        assert ready["checks"] == {"accepting_jobs": True, "state_dir_writable": True}

    def test_health_reports_partition_cache(self, http_server):
        client, _ = http_server
        cache = client.health()["cache"]
        assert cache["disk_enabled"] is True
        assert set(cache) >= {"max_entries", "memory_entries", "memory", "disk"}

    def test_readyz_on_a_stopped_service_is_a_parsed_503(self, tmp_path):
        server = serve(tmp_path / "state", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            server.service.stop()
            ready = client.readyz()  # served as a 503; body still parsed
            assert ready["ready"] is False
            assert ready["checks"]["accepting_jobs"] is False
            with pytest.raises(ServiceError) as unready:
                client._request("/readyz")  # without body_on a 503 is an error
            assert unready.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    @pytest.mark.parametrize("path", ["/healthz", "/slo", "/jobs/job-000001/profile"])
    def test_retired_routes_are_404(self, http_server, path):
        client, _ = http_server
        with pytest.raises(ServiceError, match="no such route") as missing:
            client._request(path)
        assert missing.value.status == 404


class TestClientBackoff:
    def test_wait_backoff_schedule_and_poll_counter(self, monkeypatch):
        """Deterministic capped doubling, one counter increment per poll."""
        client = ServiceClient("http://127.0.0.1:1")
        statuses = iter(["queued", "queued", "queued", "queued", "running", "done"])
        monkeypatch.setattr(client, "status", lambda job_id: {"status": next(statuses)})
        monkeypatch.setattr(client, "result", lambda job_id: {"status": "done"})
        sleeps: list[float] = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        with obs.isolated():
            result = client.wait("job-1", poll_interval=0.05, max_poll_interval=0.4)
            polls = obs.counter("repro_client_polls_total").value()
        assert result == {"status": "done"}
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.4]
        assert polls == 6.0

    def test_wait_retries_a_dropped_connection(self, monkeypatch):
        """A RemoteDisconnected mid-poll is a retried transport error."""
        client = ServiceClient("http://127.0.0.1:1")
        requested: list[str] = []

        def urlopen(request, timeout):
            requested.append(request.full_url)
            if len(requested) == 1:
                raise http.client.RemoteDisconnected("Remote end closed connection")
            return io.BytesIO(b'{"status": "done"}')

        monkeypatch.setattr("repro.service.client.urllib.request.urlopen", urlopen)
        monkeypatch.setattr("repro.service.client.time.sleep", lambda seconds: None)
        assert client.wait("job-1") == {"status": "done"}
        assert requested == [
            "http://127.0.0.1:1/jobs/job-1",  # dropped, retried
            "http://127.0.0.1:1/jobs/job-1",
            "http://127.0.0.1:1/jobs/job-1/result",
        ]

    def test_service_owns_obs_lifecycle(self, tmp_path):
        was_enabled = obs.enabled()
        obs.disable()
        try:
            service = RepairService(tmp_path / "state")
            assert obs.enabled()
            service.stop()
            assert not obs.enabled()
        finally:
            if was_enabled:
                obs.enable()
