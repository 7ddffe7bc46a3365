"""Repair-as-a-service: the long-lived job daemon.

:class:`RepairService` owns the warm state that makes a shared daemon worth
running — one fingerprint-keyed :class:`~repro.syrenn.cache.PartitionCache`
(memory tier in front of ``state_dir/cache``) — and multiplexes any number
of concurrent repair/verify jobs over it from a small thread pool.  Every
``syrenn`` job's verifier is built around that one cache.  Because
value-channel repair never moves linear regions, decompositions cached by
one job are hits for every later job on the same network fingerprint, which
is where the warm-versus-cold speedup of ``benchmarks/bench_service.py``
comes from.

A job runs exactly the verifier and driver a standalone caller would build
from the same document, so its result bytes equal a standalone run's for
every verifier kind.  The cache locks its own tiers, and a cached
decomposition is byte-identical to a fresh one, so concurrent jobs change
nothing about each other's bytes, only their wall-clock.

Every job is durably persisted under ``state_dir/jobs`` as a JSON document
(atomically: temp file + ``os.replace``) at every state transition *and*
after every driver round, alongside the driver's counterexample-pool
checkpoint (``<job-id>.pool.npz``).  A daemon killed mid-job and restarted
on the same ``state_dir`` requeues the interrupted job and the driver
resumes from the checkpointed pool instead of rediscovering it.

:class:`ServiceHTTPServer` fronts a service with the stdlib HTTP layer::

    POST /jobs            submit a job document     -> {"id": ...}
    GET  /jobs            list job summaries
    GET  /jobs/<id>       status + per-round progress (no result payload)
    GET  /jobs/<id>/result
                          the finished result (409 while still running)
    GET  /jobs/<id>/trace
                          the job's span tree (409 until the job starts)
    GET  /health          liveness + job counts + partition-cache statistics
    GET  /readyz          readiness: accepting jobs + state dir writable
                          (200, else 503)
    GET  /metrics         Prometheus text exposition of the live registry

Those are the daemon's only telemetry surfaces: ``/health`` and ``/readyz``
are point-in-time probes, ``/metrics`` is the cumulative registry for an
external scraper to window and alert on, and a job's span tree is its only
clock.

The service owns the telemetry lifecycle: constructing one enables
:mod:`repro.obs` (and ``stop()`` restores the prior state), each job runs
under its own :class:`~repro.obs.Trace` whose id embeds the job id, and the
daemon emits one structured JSON log line per request and per job-state
transition (:class:`~repro.obs.JsonLogger`; level via ``serve(...,
log_level=)``).  All request/job latencies are computed from monotonic
clocks; the ``*_at`` wall-clock fields are timestamps for humans only.

Trust model: jobs carry pickled networks, so the daemon executes whatever
its clients send — bind it to localhost (the default) or an equally trusted
network only.
"""

from __future__ import annotations

import json
import os
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import repro.obs as obs
from repro.driver.driver import RepairDriver, RoundRecord
from repro.exceptions import SpecificationError
from repro.obs import JOB_SECONDS_BUCKETS, JsonLogger, Trace, use_trace
from repro.service.protocol import ParsedJob, encode_network_b64, parse_job
from repro.syrenn.cache import PartitionCache
from repro.verify.registry import make_verifier

__all__ = [
    "JobRecord",
    "RepairService",
    "ServiceHTTPServer",
    "serve",
]

#: Job lifecycle states (``queued`` → ``running`` → ``done``/``failed``).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

@dataclass
class JobRecord:
    """One job's full server-side state (also its persisted JSON document).

    The ``*_at`` fields are wall-clock timestamps (display only).  Latencies
    are computed separately, from the monotonic anchors ``submitted_mono``
    and ``started_mono``: ``queued_seconds`` (submit → start),
    ``run_seconds`` (start → finish), and ``latency_seconds`` (submit →
    finish) — never as differences of ``time.time()`` readings, which jump
    with clock adjustments.  The anchors themselves are process-local and
    are not persisted; a job recovered from disk keeps whatever latency
    fields its document already carried.
    """

    job_id: str
    payload: dict
    status: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    rounds: list[dict] = field(default_factory=list)
    result: dict | None = None
    error: str | None = None
    queued_seconds: float | None = None
    run_seconds: float | None = None
    latency_seconds: float | None = None
    submitted_mono: float | None = field(default=None, repr=False, compare=False)
    started_mono: float | None = field(default=None, repr=False, compare=False)

    def document(self, *, include_result: bool = True) -> dict:
        """The record as a JSON-ready dictionary."""
        document = {
            "id": self.job_id,
            "kind": self.payload.get("kind"),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queued_seconds": self.queued_seconds,
            "run_seconds": self.run_seconds,
            "latency_seconds": self.latency_seconds,
            "rounds": list(self.rounds),
            "error": self.error,
            "job": self.payload,
        }
        if include_result:
            document["result"] = self.result
        return document

    def summary(self) -> dict:
        """The short form used by job listings and the health endpoint."""
        return {
            "id": self.job_id,
            "kind": self.payload.get("kind"),
            "status": self.status,
            "rounds": len(self.rounds),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "latency_seconds": self.latency_seconds,
        }


class RepairService:
    """The job daemon's core: shared partition cache + durable job queue.

    Parameters
    ----------
    state_dir:
        Durable root.  Job documents live in ``state_dir/jobs`` and the
        partition cache's disk tier in ``state_dir/cache`` (unless an
        explicit ``cache`` is given).  Restarting a service on the same
        directory requeues every job that was queued or running.
    job_workers:
        How many jobs run concurrently (each on its own thread, sharing the
        one partition cache).
    cache:
        An explicit :class:`PartitionCache` to share, for embedding the
        service in-process next to other verifiers.
    log_level:
        Structured-logging threshold (``"debug"``/``"info"``/``"warning"``/
        ``"error"``/``"off"``).  The default ``"off"`` keeps embedded and
        test use silent; the CLI front-end defaults to ``"info"``.
    log_stream:
        Where JSON log lines go (default ``sys.stderr``); tests pass a
        ``StringIO``.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        job_workers: int = 2,
        cache: PartitionCache | None = None,
        log_level: str = "off",
        log_stream=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.log = JsonLogger(log_level, stream=log_stream)
        # The daemon is the live telemetry surface: it turns obs on for its
        # lifetime and stop() puts the previous state back, so embedding a
        # service in a test process never leaks an enabled registry.
        self._obs_was_enabled = obs.enabled()
        obs.enable()
        self._traces: dict[str, Trace] = {}
        if cache is None:
            cache = PartitionCache(directory=self.state_dir / "cache")
        self.cache = cache
        self._records: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._next_index = 1
        self._recover()
        self._threads = [
            threading.Thread(target=self._worker, name=f"repair-job-{i}", daemon=True)
            for i in range(max(1, int(job_workers)))
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Public API (what the HTTP layer calls)
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> str:
        """Validate and enqueue one job; returns its id.

        Validation happens *here*, synchronously, so a malformed job is the
        submitter's error (HTTP 400), never a failed job.
        """
        parsed = parse_job(payload)
        with self._lock:
            job_id = f"job-{self._next_index:06d}"
            self._next_index += 1
            record = JobRecord(
                job_id=job_id,
                payload=parsed.payload,
                submitted_at=time.time(),
                submitted_mono=time.monotonic(),
            )
            self._records[job_id] = record
            self._persist_locked(record)
        self.log.info(
            "job_submitted", job_id=job_id, kind=parsed.payload.get("kind")
        )
        self._queue.put(job_id)
        return job_id

    def status(self, job_id: str) -> dict:
        """The job's document, sans result payload (cheap to poll)."""
        record = self._get(job_id)
        with self._lock:  # snapshot rounds consistently with the worker's appends
            return record.document(include_result=False)

    def result(self, job_id: str) -> dict:
        """The finished job's result document (raises while unfinished)."""
        record = self._get(job_id)
        with self._lock:
            if record.status not in (DONE, FAILED):
                raise _JobUnfinished(job_id, record.status)
            return {
                "id": record.job_id,
                "status": record.status,
                "error": record.error,
                "result": record.result,
            }

    def jobs(self) -> list[dict]:
        """Summaries of every known job, oldest first."""
        with self._lock:
            return [
                self._records[job_id].summary() for job_id in sorted(self._records)
            ]

    def health(self) -> dict:
        """Liveness document: job counts plus partition-cache statistics."""
        with self._lock:
            counts: dict[str, int] = {}
            for record in self._records.values():
                counts[record.status] = counts.get(record.status, 0) + 1
        return {"ok": True, "jobs": counts, "cache": self.cache.as_dict()}

    def readyz(self) -> dict:
        """Readiness: jobs are accepted and the state dir takes writes.

        A load balancer should not route jobs here until both hold — a
        stopped daemon or one on a read-only state volume accepts
        submissions it can never durably run.
        """
        checks = {"accepting_jobs": not self._stop.is_set()}
        probe = self.jobs_dir / ".readyz-probe"
        try:
            probe.write_text("ok")
            probe.unlink()
            checks["state_dir_writable"] = True
        except OSError:
            checks["state_dir_writable"] = False
        return {"ready": all(checks.values()), "checks": checks}

    def trace(self, job_id: str) -> dict:
        """The job's span tree (raises :class:`_JobUnfinished` until it starts).

        Traces are in-memory only: a job recovered from a previous daemon's
        disk state has no trace until its resumed run produces one.
        """
        self._get(job_id)  # 404 semantics for unknown ids
        with self._lock:
            trace = self._traces.get(job_id)
        if trace is None:
            record = self._get(job_id)
            raise _JobUnfinished(job_id, record.status)
        return trace.export()

    def metrics_text(self) -> str:
        """The live registry in Prometheus text exposition format."""
        return obs.render_prometheus()

    def wait(self, job_id: str, timeout: float | None = None, poll: float = 0.02) -> dict:
        """Block until the job finishes; returns its result document."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self._get(job_id)
            with self._lock:
                finished = record.status in (DONE, FAILED)
            if finished:
                return self.result(job_id)
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {record.status} after {timeout}s")
            time.sleep(poll)

    def stop(self) -> None:
        """Stop accepting work and let idle workers exit.

        A job already running finishes (there is no safe preemption point
        inside an LP solve); its completion is persisted as usual.
        """
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)
        self.log.info("service_stopped", state_dir=str(self.state_dir))
        if not self._obs_was_enabled:
            obs.disable()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None or self._stop.is_set():
                return
            record = self._get(job_id)
            try:
                parsed = parse_job(record.payload)
                self._transition(record, RUNNING)
                result = self._execute(record, parsed)
            except Exception as error:  # noqa: BLE001 - any failure fails the job, not the worker
                with self._lock:
                    record.error = f"{type(error).__name__}: {error}"
                self._transition(record, FAILED)
            else:
                with self._lock:
                    record.result = result
                self._transition(record, DONE)

    def _execute(self, record: JobRecord, parsed: ParsedJob) -> dict:
        # One trace per job, its id derived from the job id so log lines,
        # job documents, and GET /jobs/<id>/trace all correlate trivially.
        trace = Trace(name=f"job.{parsed.kind}", trace_id=f"{record.job_id}-trace")
        trace.root.attributes["job_id"] = record.job_id
        with self._lock:
            self._traces[record.job_id] = trace
        try:
            with use_trace(trace):
                return self._execute_traced(record, parsed)
        finally:
            trace.finish()

    def _execute_traced(self, record: JobRecord, parsed: ParsedJob) -> dict:
        params = dict(parsed.verifier_params)
        if parsed.verifier_kind == "syrenn":
            params["cache"] = self.cache
        verifier = make_verifier(parsed.verifier_kind, **params)
        if parsed.kind == "verify":
            with obs.span("job.verify", job_id=record.job_id):
                report = verifier.verify(parsed.network, parsed.spec)
            return {"report": report.as_dict()}

        def on_round(round_record: RoundRecord) -> None:
            with self._lock:
                record.rounds.append(round_record.as_dict())
                self._persist_locked(record)
            obs.counter(
                "repro_service_job_rounds_total",
                "Driver rounds completed, per job.",
                labels=("job",),
            ).inc(job=record.job_id)
            self.log.debug(
                "job_round",
                job_id=record.job_id,
                round=round_record.round_index,
                violated=round_record.regions_violated,
                pool_size=round_record.pool_size,
            )

        driver = RepairDriver(
            parsed.network,
            parsed.spec,
            verifier,
            config=parsed.config,
            checkpoint_path=self._checkpoint_path(record.job_id),
            on_round=on_round,
        )
        report = driver.run()
        return {
            "report": report.as_dict(),
            "network": encode_network_b64(report.network),
        }

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _checkpoint_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.pool.npz"

    def _persist_locked(self, record: JobRecord) -> None:
        """Atomically write the record's document (caller holds the lock)."""
        path = self.jobs_dir / f"{record.job_id}.json"
        temporary = path.with_suffix(".json.tmp")
        temporary.write_text(json.dumps(record.document()))
        os.replace(temporary, path)

    def _transition(self, record: JobRecord, status: str) -> None:
        with self._lock:
            record.status = status
            now = time.time()
            mono = time.monotonic()
            if status == RUNNING:
                record.started_at = now
                record.started_mono = mono
                if record.submitted_mono is not None:
                    record.queued_seconds = mono - record.submitted_mono
            else:
                record.finished_at = now
                if record.started_mono is not None:
                    record.run_seconds = mono - record.started_mono
                if record.submitted_mono is not None:
                    record.latency_seconds = mono - record.submitted_mono
            self._persist_locked(record)
        obs.counter(
            "repro_service_jobs_total",
            "Job state transitions, by new state.",
            labels=("status",),
        ).inc(status=status)
        if status in (DONE, FAILED) and record.run_seconds is not None:
            obs.histogram(
                "repro_service_job_seconds",
                "Job run time (start to finish), by kind.",
                labels=("kind",),
                # Whole jobs run for seconds-to-minutes; the default sub-ms
                # LP-solve boundaries would dump every job in two buckets.
                buckets=JOB_SECONDS_BUCKETS,
            ).observe(record.run_seconds, kind=record.payload.get("kind") or "unknown")
        self.log.log(
            "error" if status == FAILED else "info",
            "job_state",
            job_id=record.job_id,
            status=status,
            trace_id=f"{record.job_id}-trace",
            queued_seconds=record.queued_seconds,
            run_seconds=record.run_seconds,
            error=record.error,
        )

    def _recover(self) -> None:
        """Reload persisted jobs; requeue any the previous daemon never finished.

        A requeued job restarts its driver from round zero, but against the
        checkpointed counterexample pool (``<job-id>.pool.npz``), so the
        violations already discovered before the crash are repaired in the
        very first round instead of being rediscovered one round at a time.
        """
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                document = json.loads(path.read_text())
                record = JobRecord(
                    job_id=document["id"],
                    payload=document["job"],
                    status=document["status"],
                    submitted_at=document.get("submitted_at", 0.0),
                    started_at=document.get("started_at"),
                    finished_at=document.get("finished_at"),
                    rounds=list(document.get("rounds", [])),
                    result=document.get("result"),
                    error=document.get("error"),
                    queued_seconds=document.get("queued_seconds"),
                    run_seconds=document.get("run_seconds"),
                    latency_seconds=document.get("latency_seconds"),
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # a torn write of the *temp* file can never land here
            self._records[record.job_id] = record
            match = re.fullmatch(r"job-(\d+)", record.job_id)
            if match is not None:
                self._next_index = max(self._next_index, int(match.group(1)) + 1)
            if record.status in (QUEUED, RUNNING):
                record.status = QUEUED
                record.rounds = []  # the resumed run re-emits its own rounds
                record.result = None
                # Latency restarts from the requeue: the previous process's
                # monotonic clock is meaningless here.
                record.submitted_mono = time.monotonic()
                record.queued_seconds = None
                record.run_seconds = None
                record.latency_seconds = None
                self._persist_locked(record)
                self.log.info("job_recovered", job_id=record.job_id)
                self._queue.put(record.job_id)

    def _get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record


class _JobUnfinished(Exception):
    """Raised when a result is requested for a job still in flight."""

    def __init__(self, job_id: str, status: str) -> None:
        super().__init__(f"job {job_id} is still {status}")
        self.status = status


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`RepairService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: RepairService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> RepairService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # replaced by the service's structured one-line-JSON request log

    def _finish_request(self, code: int, started_mono: float) -> None:
        """One structured log line + request metrics per handled request."""
        elapsed = time.monotonic() - started_mono
        obs.counter(
            "repro_service_requests_total",
            "HTTP requests handled, by method and status code.",
            labels=("method", "code"),
        ).inc(method=self.command, code=str(code))
        self.service.log.info(
            "request",
            method=self.command,
            path=self.path,
            code=code,
            seconds=elapsed,
        )

    def _reply(self, code: int, document: dict, *, started_mono: float) -> None:
        body = json.dumps(document).encode("utf-8")
        self._send(code, body, "application/json", started_mono)

    def _reply_text(self, code: int, text: str, content_type: str, *, started_mono: float) -> None:
        self._send(code, text.encode("utf-8"), content_type, started_mono)

    def _send(self, code: int, body: bytes, content_type: str, started_mono: float) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._finish_request(code, started_mono)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        started_mono = time.monotonic()
        try:
            if self.path == "/health":
                self._reply(200, self.service.health(), started_mono=started_mono)
            elif self.path == "/readyz":
                document = self.service.readyz()
                self._reply(
                    200 if document["ready"] else 503,
                    document,
                    started_mono=started_mono,
                )
            elif self.path == "/metrics":
                self._reply_text(
                    200,
                    self.service.metrics_text(),
                    obs.CONTENT_TYPE,
                    started_mono=started_mono,
                )
            elif self.path == "/jobs":
                self._reply(200, {"jobs": self.service.jobs()}, started_mono=started_mono)
            else:
                match = re.fullmatch(r"/jobs/([\w-]+)(/result|/trace)?", self.path)
                if match is None:
                    self._reply(
                        404,
                        {"error": f"no such route: {self.path}"},
                        started_mono=started_mono,
                    )
                elif match.group(2) == "/result":
                    self._reply(
                        200, self.service.result(match.group(1)), started_mono=started_mono
                    )
                elif match.group(2) == "/trace":
                    self._reply(
                        200, self.service.trace(match.group(1)), started_mono=started_mono
                    )
                else:
                    self._reply(
                        200, self.service.status(match.group(1)), started_mono=started_mono
                    )
        except KeyError as error:
            self._reply(
                404, {"error": f"no such job: {error.args[0]}"}, started_mono=started_mono
            )
        except _JobUnfinished as error:
            self._reply(
                409,
                {"error": str(error), "status": error.status},
                started_mono=started_mono,
            )

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        started_mono = time.monotonic()
        if self.path != "/jobs":
            self._reply(
                404, {"error": f"no such route: {self.path}"}, started_mono=started_mono
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._reply(
                400, {"error": f"unreadable job body: {error}"}, started_mono=started_mono
            )
            return
        try:
            job_id = self.service.submit(payload)
        except SpecificationError as error:
            self._reply(400, {"error": str(error)}, started_mono=started_mono)
            return
        self._reply(200, {"id": job_id}, started_mono=started_mono)


def serve(
    state_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    job_workers: int = 2,
    log_level: str = "off",
    log_stream=None,
) -> ServiceHTTPServer:
    """Build a service and bind its HTTP server (does not start serving).

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address``.  Call ``server.serve_forever()`` to run and
    ``server.service.stop()`` after ``server.shutdown()`` to tear down.
    ``log_level`` controls the structured JSON request/job log (one of
    :data:`repro.obs.LEVELS`; ``"off"`` keeps the daemon silent).
    """
    service = RepairService(
        state_dir,
        job_workers=job_workers,
        log_level=log_level,
        log_stream=log_stream,
    )
    return ServiceHTTPServer((host, port), service)
