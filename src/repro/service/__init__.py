"""Repair-as-a-service: a long-lived job daemon over the repair pipeline.

* :mod:`repro.service.daemon` — :class:`RepairService` (shared partition
  cache, durable job queue, crash recovery) and its stdlib HTTP
  front-end; ``python -m repro.service`` runs it.
* :mod:`repro.service.protocol` — the JSON wire format for jobs and results.
* :mod:`repro.service.client` — :class:`ServiceClient`, a ``urllib``-only
  submit/poll/result client.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    JobRecord,
    RepairService,
    ServiceHTTPServer,
    serve,
)
from repro.service.protocol import (
    ParsedJob,
    decode_network_b64,
    encode_network_b64,
    make_job,
    parse_job,
)

__all__ = [
    "JobRecord",
    "ParsedJob",
    "RepairService",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "decode_network_b64",
    "encode_network_b64",
    "make_job",
    "parse_job",
    "serve",
]
