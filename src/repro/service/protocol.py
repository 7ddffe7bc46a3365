"""The repair daemon's wire format: jobs and results as JSON documents.

A job is one dictionary that a client could equally well have written by
hand::

    {
      "version": 1,
      "kind": "repair",                      # or "verify"
      "network": "<base64 payload>",         # encode_network_b64(...)
      "spec": {"regions": [...]},            # VerificationSpec.as_dict()
      "verifier": {"kind": "syrenn"},        # registry kind + parameters
      "config": {"max_rounds": 6, ...}       # DriverConfig.to_dict(), repair only
    }

Everything numeric round-trips exactly: arrays travel as nested lists of
Python floats (``repr`` serialization recovers identical float64 bit
patterns) and the network travels as a base64-wrapped
:func:`repro.utils.serialization.encode_network` payload, so a daemon-side
run is byte-identical to the same run executed in-process.

:func:`parse_job` is the single validation gate — the daemon accepts a raw
dictionary from the HTTP layer and everything malformed surfaces as a
:class:`~repro.exceptions.SpecificationError` *before* the job is queued.
"""

from __future__ import annotations

import base64
import binascii
import pickle
from dataclasses import dataclass, field

from repro.core.ddnn import DecoupledNetwork
from repro.driver.config import DriverConfig
from repro.exceptions import RepairError, SpecificationError
from repro.nn.network import Network
from repro.utils.serialization import decode_network, encode_network
from repro.verify.base import VerificationSpec
from repro.verify.registry import make_verifier

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_KINDS",
    "ParsedJob",
    "encode_network_b64",
    "decode_network_b64",
    "make_job",
    "parse_job",
]

PROTOCOL_VERSION = 1
JOB_KINDS = ("repair", "verify")


def encode_network_b64(network: Network | DecoupledNetwork) -> str:
    """A network as a JSON-safe string (base64 over the pickle payload)."""
    return base64.b64encode(encode_network(network)).decode("ascii")


def decode_network_b64(text: str):
    """Inverse of :func:`encode_network_b64`."""
    try:
        payload = base64.b64decode(text.encode("ascii"), validate=True)
        network = decode_network(payload)
    except (binascii.Error, UnicodeEncodeError, pickle.UnpicklingError, EOFError,
            AttributeError, TypeError, ValueError) as error:
        raise SpecificationError(f"undecodable network payload: {error}") from error
    if not isinstance(network, (Network, DecoupledNetwork)):
        raise SpecificationError(
            f"network payload decoded to {type(network).__name__}, "
            "expected a Network or DecoupledNetwork"
        )
    return network


def make_job(
    kind: str,
    network: Network | DecoupledNetwork,
    spec: VerificationSpec,
    *,
    verifier: dict | str | None = None,
    config: DriverConfig | dict | None = None,
) -> dict:
    """Build a wire-format job dictionary from in-process objects."""
    if isinstance(verifier, str):
        verifier = {"kind": verifier}
    job = {
        "version": PROTOCOL_VERSION,
        "kind": kind,
        "network": encode_network_b64(network),
        "spec": spec.as_dict(),
    }
    if verifier is not None:
        job["verifier"] = dict(verifier)
    if config is not None:
        job["config"] = config.to_dict() if isinstance(config, DriverConfig) else dict(config)
    return parse_job(job).payload  # validate eagerly, on the client side


@dataclass
class ParsedJob:
    """A validated job: the original payload plus its decoded pieces."""

    payload: dict
    kind: str
    network: Network | DecoupledNetwork
    spec: VerificationSpec
    verifier_kind: str
    verifier_params: dict = field(default_factory=dict)
    config: DriverConfig = field(default_factory=DriverConfig)


def parse_job(payload: dict) -> ParsedJob:
    """Validate and decode one job dictionary (the daemon's intake gate)."""
    if not isinstance(payload, dict):
        raise SpecificationError("a job must be a JSON object")
    version = payload.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise SpecificationError(
            f"unsupported protocol version {version!r} (this daemon speaks "
            f"{PROTOCOL_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise SpecificationError(f"job kind must be one of {list(JOB_KINDS)}, got {kind!r}")
    if "network" not in payload:
        raise SpecificationError('a job needs a "network" payload')
    if "spec" not in payload:
        raise SpecificationError('a job needs a "spec" document')
    network = decode_network_b64(payload["network"])
    spec = VerificationSpec.from_dict(payload["spec"])

    verifier = payload.get("verifier", {"kind": "syrenn"})
    if isinstance(verifier, str):
        verifier = {"kind": verifier}
    if not isinstance(verifier, dict):
        raise SpecificationError('"verifier" must be a kind string or an object')
    verifier = dict(verifier)
    verifier_kind = verifier.pop("kind", "syrenn")
    if "cache" in verifier:
        raise SpecificationError('"cache" is the daemon\'s runtime resource, not a verifier parameter')
    # Build (and drop) the verifier once so an unknown kind or a parameter
    # its constructor refuses is a 400 at submit, never a failed job; the
    # daemon rebuilds it around its shared cache when the job runs.
    make_verifier(verifier_kind, **verifier)

    config_payload = payload.get("config")
    if config_payload is not None and kind != "repair":
        raise SpecificationError('"config" only applies to repair jobs')
    if config_payload is None:
        config = DriverConfig()
    else:
        try:
            config = DriverConfig.from_dict(config_payload)
        except RepairError as error:
            # Malformed jobs surface uniformly as specification errors (the
            # daemon maps those to HTTP 400 at submit time).
            raise SpecificationError(f"bad driver config: {error}") from error
    return ParsedJob(
        payload=payload,
        kind=kind,
        network=network,
        spec=spec,
        verifier_kind=verifier_kind,
        verifier_params=verifier,
        config=config,
    )
