"""Violation search and certification for repair specifications.

* :mod:`repro.verify.base` — the :class:`Verifier` interface,
  :class:`VerificationSpec` (regions + output constraints),
  :class:`Counterexample` / :class:`RegionCounterexample` (a whole violating
  linear region, used by the polytope-mode driver), and
  :class:`VerificationReport` with certified/violated/unknown region
  accounting.
* :mod:`repro.verify.sampling` — :class:`GridVerifier` (dense deterministic
  sweep) and :class:`RandomVerifier` (seeded Monte-Carlo); they find
  violations but never certify.
* :mod:`repro.verify.exact` — :class:`SyrennVerifier`, exact over
  line/plane regions via the SyReNN linear-region decomposition; certifies
  regions or returns true counterexamples.
* :mod:`repro.verify.registry` — :func:`make_verifier`, the declarative
  factory that builds any registered verifier from a JSON-representable
  ``(kind, params)`` description.
"""

from repro.verify.base import (
    Box,
    Counterexample,
    CounterexampleBatch,
    RegionCounterexample,
    RegionStatus,
    SpecRegion,
    VerificationReport,
    VerificationSpec,
    Verifier,
)
from repro.verify.exact import SyrennVerifier
from repro.verify.registry import make_verifier, register_verifier, verifier_kinds
from repro.verify.sampling import GridVerifier, RandomVerifier

__all__ = [
    "Box",
    "Counterexample",
    "CounterexampleBatch",
    "RegionCounterexample",
    "RegionStatus",
    "SpecRegion",
    "VerificationReport",
    "VerificationSpec",
    "Verifier",
    "GridVerifier",
    "RandomVerifier",
    "SyrennVerifier",
    "make_verifier",
    "register_verifier",
    "verifier_kinds",
]
