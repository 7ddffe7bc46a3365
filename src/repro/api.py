"""The one-import facade over the repair pipeline.

Three verbs cover the typical workflows:

* :func:`repair` — run the full CEGIS driver in-process and return its
  :class:`~repro.driver.driver.DriverReport`.
* :func:`verify` — run one verification pass and return its
  :class:`~repro.verify.base.VerificationReport`.
* :func:`submit` — hand the same work to a running repair daemon
  (:mod:`repro.service`) as a JSON job and, by default, wait for the result.

All three take the verifier *declaratively* (a registry kind plus keyword
parameters, e.g. ``verifier="grid", resolution=32``) or as a ready
:class:`~repro.verify.base.Verifier` instance; :func:`repair` takes the
algorithm knobs as a :class:`~repro.driver.config.DriverConfig` or its
``to_dict()`` form::

    import repro

    report = repro.api.repair(network, spec, config=repro.DriverConfig(max_rounds=6))
    report = repro.api.verify(network, spec, verifier="random", seed=7)
    result = repro.api.submit(network, spec, url="http://127.0.0.1:8642",
                              config={"max_rounds": 6})
"""

from __future__ import annotations

from repro.driver.config import DriverConfig
from repro.driver.driver import DriverReport, RepairDriver
from repro.verify.base import VerificationReport, VerificationSpec, Verifier
from repro.verify.registry import make_verifier

__all__ = ["repair", "submit", "verify"]


def _resolve_verifier(verifier, params: dict) -> Verifier:
    if isinstance(verifier, Verifier):
        if params:
            raise TypeError(
                "verifier parameters only apply when the verifier is named by "
                f"kind, not when an instance is passed (got {sorted(params)})"
            )
        return verifier
    return make_verifier(verifier, **params)


def _resolve_config(config: DriverConfig | dict | None) -> DriverConfig:
    if config is None:
        return DriverConfig()
    if isinstance(config, DriverConfig):
        return config
    return DriverConfig.from_dict(config)


def verify(
    network,
    spec: VerificationSpec,
    *,
    verifier: str | Verifier = "syrenn",
    **verifier_params,
) -> VerificationReport:
    """One verification pass of ``network`` against ``spec``."""
    return _resolve_verifier(verifier, verifier_params).verify(network, spec)


def repair(
    network,
    spec,
    *,
    verifier: str | Verifier = "syrenn",
    verifier_params: dict | None = None,
    config: DriverConfig | dict | None = None,
    holdout: tuple | None = None,
    checkpoint_path=None,
    on_round=None,
) -> DriverReport:
    """Run the CEGIS repair driver in-process.

    ``config`` is a :class:`DriverConfig` or its ``to_dict()`` form
    (``None``: the defaults); ``verifier_params`` configures a kind-named
    verifier.
    """
    driver = RepairDriver(
        network,
        spec,
        _resolve_verifier(verifier, dict(verifier_params or {})),
        config=_resolve_config(config),
        holdout=holdout,
        checkpoint_path=checkpoint_path,
        on_round=on_round,
    )
    return driver.run()


def submit(
    network,
    spec: VerificationSpec,
    *,
    url: str,
    kind: str = "repair",
    verifier: dict | str | None = None,
    config: DriverConfig | dict | None = None,
    wait: bool = True,
    timeout: float | None = None,
    poll_interval: float = 0.2,
):
    """Submit a job to a running repair daemon at ``url``.

    Returns the finished job document (``wait=True``, the default) or the
    job id string (``wait=False``; poll with
    :class:`repro.service.ServiceClient`).  ``verifier`` is either a kind
    string or a ``{"kind": ..., **params}`` dictionary; ``config`` only
    applies to ``kind="repair"`` jobs.
    """
    # Imported lazily so ``import repro`` stays free of the service layer.
    from repro.service.client import ServiceClient
    from repro.service.protocol import make_job

    client = ServiceClient(url)
    job_id = client.submit(
        make_job(kind, network, spec, verifier=verifier, config=config)
    )
    if not wait:
        return job_id
    return client.wait(job_id, timeout=timeout, poll_interval=poll_interval)
