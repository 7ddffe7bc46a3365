"""The declarative, serializable configuration of a repair-driver run.

:class:`DriverConfig` captures every *algorithm* knob of
:class:`~repro.driver.driver.RepairDriver` — mode, layer schedule, margins,
budgets, norm — as one frozen dataclass that round-trips through JSON.
Runtime resources (the network, the spec, the verifier, a pool,
a checkpoint path, a holdout set) deliberately stay out: a config describes
*how* to run a repair, not *what* to repair, which is what lets the same
dictionary travel from a client, through the job daemon's JSON API, into
an in-process driver — and lets a driver run be reproduced from nothing
but the job record.

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

#: Knobs that chose between repair data paths or LP solvers before there was
#: only one; naming one is an error that says so, not a silently ignored key.
REMOVED_KNOBS = {
    "incremental": "the driver always repairs through its standing LP session",
    "batched": "constraint rows are always encoded by the batched chunk stream",
    "sparse": "the LP standard form is always CSR",
    "warm_start": "every LP session re-solves its retained HiGHS model warm",
    "backend": "scipy/HiGHS is the only LP solver",
    "lp_backend": "scipy/HiGHS is the only LP solver",
}

#: Saved ``backend`` values that named what is now the only solver.
_SCIPY = (None, "scipy", "highs")

#: Values of the removed knobs that the single path reproduces (``to_dict``
#: wrote every knob, so configs saved before the removal carry them).
#: ``from_dict`` drops these; any other value is still an error.
SINGLE_PATH_VALUES = {
    "incremental": (False, True),
    "batched": (True,),
    "sparse": (None,),
    "warm_start": (False, True),
    "backend": _SCIPY,
    "lp_backend": _SCIPY,
}


def _same(value, kept) -> bool:
    """``value == kept`` for a value decoded from JSON, without ``1 == True``."""
    return type(value) is type(kept) and value == kept


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
    max_new_counterexamples: int | None = None
    norm: str = "linf"
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
        a knob must fail loudly, not silently run with the default.  A
        removed knob whose value the single repair path reproduces
        (:data:`SINGLE_PATH_VALUES`) is dropped, so a config saved before the
        removal still decodes; any other value is rejected.  A payload that
        is not a mapping, or a field that does not coerce to its type, is a
        :class:`RepairError` too.
        """
        if not isinstance(payload, dict):
            raise RepairError(
                f"a driver config must be a JSON object, got {type(payload).__name__}"
            )
        payload = {
            key: value
            for key, value in payload.items()
            if not (
                key in SINGLE_PATH_VALUES
                and any(_same(value, kept) for kept in SINGLE_PATH_VALUES[key])
            )
        }
        _reject_removed(payload)
        known = {entry.name for entry in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise RepairError(
                f"unknown driver config keys {sorted(unknown)}; known keys: {sorted(known)}"
            )
        try:
            return cls(**payload)
        except (TypeError, ValueError) as error:
            raise RepairError(f"malformed driver config field: {error}") from error

    def replace(self, **changes) -> "DriverConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
