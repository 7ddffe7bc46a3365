"""The declarative, serializable configuration of a repair-driver run.

:class:`DriverConfig` captures every *algorithm* knob of
:class:`~repro.driver.driver.RepairDriver` — mode, layer schedule, margins,
budgets, the warm-start switch, the LP backend — as one frozen dataclass
that round-trips through JSON. Runtime resources (the network, the spec,
the verifier, an engine, a pool, a checkpoint path, a holdout set)
deliberately stay out: a config describes *how* to run a repair, not *what*
to repair, which is what lets the same dictionary travel from a client,
through the job daemon's JSON API, into an in-process driver — and lets a
driver run be reproduced from nothing but the job record.

The dataclass validates on construction (the same checks the driver's old
keyword sprawl applied), so a malformed job fails at decode time with a
:class:`~repro.exceptions.RepairError` rather than rounds later.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from repro.exceptions import RepairError

#: How much every pooled constraint is tightened when building the repair LP,
#: so repaired outputs survive re-verification strictly.
DEFAULT_REPAIR_MARGIN = 1e-6

#: Knobs that chose between repair data paths before there was only one;
#: naming one is an error that says so, not a silently ignored key.
REMOVED_KNOBS = {
    "incremental": "the driver always repairs through its standing LP session",
    "batched": "constraint rows are always encoded by the batched chunk stream",
    "sparse": "the LP backend's supports_sparse flag picks the standard form",
}


#: Values of the removed knobs that the single path reproduces (``to_dict``
#: wrote every knob, so configs saved before the removal carry them).
#: ``from_dict`` drops these; any other value is still an error.
SINGLE_PATH_VALUES = {"incremental": (False, True), "batched": (True,), "sparse": (None,)}


def _reject_removed(names) -> None:
    removed = sorted(set(names) & set(REMOVED_KNOBS))
    if removed:
        reasons = "; ".join(f"{name!r}: {REMOVED_KNOBS[name]}" for name in removed)
        raise RepairError(f"driver config knobs {removed} were removed ({reasons})")


@dataclass(frozen=True)
class DriverConfig:
    """Every algorithm knob of a CEGIS driver run, JSON-serializable.

    Parameters mirror :class:`~repro.driver.driver.RepairDriver` (see its
    docstring for semantics).  ``layer_schedule`` is stored as a tuple (the
    dataclass is frozen and hashable); ``None`` means "derive the §7.1
    default from the network" at driver-construction time.  The removed
    knobs of :data:`REMOVED_KNOBS` are rejected with a :class:`RepairError`
    naming the removal.
    """

    mode: str = "point"
    layer_schedule: tuple[int, ...] | None = None
    repair_margin: float = DEFAULT_REPAIR_MARGIN
    max_rounds: int = 10
    budget_seconds: float | None = None
    warm_start: bool = True
    max_new_counterexamples: int | None = None
    norm: str = "linf"
    backend: str | None = None
    delta_bound: float | None = None
    memory_budget: int | None = None

    def __new__(cls, *args, **kwargs):
        _reject_removed(kwargs)
        return super().__new__(cls)

    def __post_init__(self) -> None:
        # Normalize before validating so a config built from JSON (lists,
        # ints-as-floats) is indistinguishable from one built in-process.
        if self.layer_schedule is not None:
            object.__setattr__(
                self, "layer_schedule", tuple(int(index) for index in self.layer_schedule)
            )
        object.__setattr__(self, "repair_margin", float(self.repair_margin))
        object.__setattr__(self, "max_rounds", int(self.max_rounds))
        if self.budget_seconds is not None:
            object.__setattr__(self, "budget_seconds", float(self.budget_seconds))
        if self.delta_bound is not None:
            object.__setattr__(self, "delta_bound", float(self.delta_bound))
        if self.max_new_counterexamples is not None:
            object.__setattr__(
                self, "max_new_counterexamples", int(self.max_new_counterexamples)
            )
        object.__setattr__(self, "warm_start", bool(self.warm_start))
        if self.memory_budget is not None:
            object.__setattr__(self, "memory_budget", int(self.memory_budget))

        if self.mode not in ("point", "polytope"):
            raise RepairError(f'mode must be "point" or "polytope", got {self.mode!r}')
        if self.max_rounds < 1:
            raise RepairError("the driver needs at least one round")
        if self.max_new_counterexamples is not None and self.max_new_counterexamples < 1:
            raise RepairError("max_new_counterexamples must be positive (or None)")
        if self.layer_schedule is not None and len(self.layer_schedule) == 0:
            raise RepairError("the layer schedule is empty")
        if self.memory_budget is not None and self.memory_budget < 1:
            raise RepairError("memory_budget must be positive bytes (or None)")
        if self.backend is not None:
            self._validate_backend(self.backend)

    @staticmethod
    def _validate_backend(spec: str) -> None:
        """Reject unknown backend names / malformed ``race:`` specs at decode
        time, so a job that misspells its LP portfolio fails before round 1.

        Degraded-but-registered backends (``highs_native`` without
        ``highspy``) pass: degradation is a capability, not a config error.
        """
        from repro.exceptions import LPError
        from repro.lp.backends import get_backend

        try:
            get_backend(spec)
        except LPError as error:
            raise RepairError(f"invalid LP backend spec {spec!r}: {error}") from error

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The config as a JSON-ready dictionary (tuples become lists)."""
        payload = dataclasses.asdict(self)
        if payload["layer_schedule"] is not None:
            payload["layer_schedule"] = list(payload["layer_schedule"])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DriverConfig":
        """Rebuild a config from :meth:`to_dict` output (or hand-written JSON).

        Unknown keys are rejected rather than ignored: a job that misspells
        a knob must fail loudly, not silently run with the default.  One
        spelling convenience: ``lp_backend`` is accepted as an alias for
        ``backend`` (the name used in docs and racing examples), but never
        alongside it.  A removed knob whose value the single repair path
        reproduces (:data:`SINGLE_PATH_VALUES`) is dropped, so a config
        saved before the removal still decodes; any other value is rejected.
        """
        payload = {
            key: value
            for key, value in payload.items()
            if not (
                key in SINGLE_PATH_VALUES
                and any(value is kept for kept in SINGLE_PATH_VALUES[key])
            )
        }
        if "lp_backend" in payload:
            if "backend" in payload:
                raise RepairError(
                    'config gives both "backend" and its alias "lp_backend"'
                )
            payload["backend"] = payload.pop("lp_backend")
        _reject_removed(payload)
        known = {entry.name for entry in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise RepairError(
                f"unknown driver config keys {sorted(unknown)}; known keys: {sorted(known)}"
            )
        return cls(**payload)

    def replace(self, **changes) -> "DriverConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
