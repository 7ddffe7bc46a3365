"""A declarative verifier registry: verifiers by name, parameters as JSON.

The repair driver takes a :class:`~repro.verify.base.Verifier` *instance*,
which is the right interface in-process — but a job submitted to the repair
daemon is a JSON document, and JSON cannot carry an instance.  The registry
closes that gap: a job names its verifier declaratively::

    {"verifier": {"kind": "syrenn", "value_only": true}}

and :func:`make_verifier` turns the dictionary into the configured instance.
Runtime resources (the daemon's shared partition cache) are passed as extra
keywords by the caller and are never part of the wire format.

The built-in kinds are ``"syrenn"`` (:class:`~repro.verify.exact.SyrennVerifier`),
``"grid"`` (:class:`~repro.verify.sampling.GridVerifier`), and ``"random"``
(:class:`~repro.verify.sampling.RandomVerifier`); :func:`register_verifier`
adds project-specific ones without touching the daemon.
"""

from __future__ import annotations

from repro.exceptions import SpecificationError
from repro.verify.base import Verifier
from repro.verify.exact import SyrennVerifier
from repro.verify.sampling import GridVerifier, RandomVerifier

_REGISTRY: dict[str, type[Verifier]] = {}


def register_verifier(kind: str, cls: type[Verifier]) -> None:
    """Register a verifier class under ``kind`` (overwrites an existing kind).

    The class must be constructible from keyword arguments that are all
    JSON-representable.
    """
    if not (isinstance(cls, type) and issubclass(cls, Verifier)):
        raise SpecificationError(f"{cls!r} is not a Verifier subclass")
    _REGISTRY[kind] = cls


def verifier_kinds() -> list[str]:
    """The registered kinds, sorted (what a job's ``kind`` may name)."""
    return sorted(_REGISTRY)


def make_verifier(kind: str = "syrenn", **params) -> Verifier:
    """Build the verifier named ``kind`` from keyword ``params``.

    Unknown kinds and parameters a constructor refuses (wrong names, types
    or values) all raise :class:`~repro.exceptions.SpecificationError`.
    """
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise SpecificationError(
            f"unknown verifier kind {kind!r}; registered kinds: {verifier_kinds()}"
        )
    try:
        return cls(**params)
    except (TypeError, ValueError) as error:
        raise SpecificationError(
            f"bad parameters for verifier kind {kind!r}: {error}"
        ) from error


register_verifier(SyrennVerifier.name, SyrennVerifier)
register_verifier(GridVerifier.name, GridVerifier)
register_verifier(RandomVerifier.name, RandomVerifier)
