"""A small stdlib HTTP client for the repair daemon.

:class:`ServiceClient` speaks the daemon's JSON routes with nothing beyond
``urllib.request``; higher-level helpers build the job documents
(:func:`repro.service.protocol.make_job`, or :func:`repro.api.submit` which
wraps the whole submit→wait round trip)::

    client = ServiceClient("http://127.0.0.1:8642")
    job_id = client.submit(make_job("repair", network, spec, config=config))
    for status in iter(lambda: client.status(job_id), None):
        ...                       # status["rounds"] streams RoundRecords
    result = client.wait(job_id)  # {"report": ..., "network": base64}
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

import repro.obs as obs
from repro.exceptions import ReproError

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ReproError):
    """An HTTP-level or daemon-reported job submission/lookup failure."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Submit, poll, and collect jobs from a running repair daemon."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _fetch(self, path: str, body: dict | None = None, *, body_on: tuple[int, ...] = ()) -> bytes:
        """One HTTP exchange; every failure surfaces as :class:`ServiceError`.

        Statuses in ``body_on`` return their body like a 200: ``/readyz``
        answers 503 *with* its checks document, and for it the body is the
        point.  Transport failures — unreachable host, a connection dropped
        mid-exchange — carry ``status=None``, which :meth:`wait` retries.
        """
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=None if body is None else json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="GET" if body is None else "POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            payload = error.read()
            if error.code in body_on:
                return payload
            try:
                detail = json.loads(payload.decode("utf-8")).get("error", "")
            except (ValueError, UnicodeDecodeError):
                detail = ""
            raise ServiceError(
                f"{request.method} {path} -> HTTP {error.code}"
                + (f": {detail}" if detail else ""),
                status=error.code,
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(f"cannot reach daemon at {self.base_url}: {error.reason}") from error
        except (OSError, http.client.HTTPException) as error:
            raise ServiceError(f"lost connection to daemon at {self.base_url}: {error!r}") from error

    def _request(self, path: str, body: dict | None = None, *, body_on: tuple[int, ...] = ()) -> dict:
        return json.loads(self._fetch(path, body, body_on=body_on).decode("utf-8"))

    # ------------------------------------------------------------------
    def submit(self, job: dict) -> str:
        """POST a job document; returns the daemon-assigned job id."""
        return self._request("/jobs", body=job)["id"]

    def status(self, job_id: str) -> dict:
        """The job's status document, including its round-by-round progress."""
        return self._request(f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The finished job's result document (HTTP 409 while in flight)."""
        return self._request(f"/jobs/{job_id}/result")

    def trace(self, job_id: str) -> dict:
        """The job's exported span tree (HTTP 409 until the job starts)."""
        return self._request(f"/jobs/{job_id}/trace")

    def metrics(self) -> str:
        """The daemon's live metrics in Prometheus text exposition format."""
        return self._fetch("/metrics").decode("utf-8")

    def jobs(self) -> list[dict]:
        """Summaries of every job the daemon knows about."""
        return self._request("/jobs")["jobs"]

    def health(self) -> dict:
        """The daemon's liveness/statistics document."""
        return self._request("/health")

    def readyz(self) -> dict:
        """The readiness document (parsed even when it is a 503)."""
        return self._request("/readyz", body_on=(503,))

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll_interval: float = 0.05,
        max_poll_interval: float = 2.0,
    ) -> dict:
        """Poll until the job finishes; returns its result document.

        The poll schedule is capped exponential backoff — ``poll_interval``,
        doubling each attempt up to ``max_poll_interval`` — deterministic
        (no jitter), so N clients against one daemon produce a bounded,
        reproducible request pattern instead of a fixed-frequency hammer.
        Every poll increments the ``repro_client_polls_total`` counter when
        telemetry is enabled.

        Connection errors during the poll are retried until ``timeout`` —
        a daemon restarting mid-job (crash recovery) looks like a brief
        connection gap to a patient client.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        interval = max(1e-4, float(poll_interval))
        cap = max(interval, float(max_poll_interval))
        while True:
            if obs.enabled():
                obs.counter(
                    "repro_client_polls_total",
                    "Status polls issued by ServiceClient.wait.",
                ).inc()
            try:
                status = self.status(job_id)["status"]
                if status in ("done", "failed"):
                    return self.result(job_id)
            except ServiceError as error:
                if error.status is not None and error.status != 409:
                    raise  # 404 etc.: the job is genuinely unknown
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} unfinished after {timeout}s")
            time.sleep(interval)
            interval = min(interval * 2.0, cap)
