"""Result objects returned by the repair algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.lp.status import LPStatus
from repro.obs import Span


@dataclass
class RepairTiming:
    """Wall-clock breakdown of a repair, mirroring the paper's RQ4 analysis.

    The paper reports time spent computing linear regions, computing
    Jacobians, inside the LP solver (Gurobi), and "other"; Figure 7(b) and
    §7.2/§7.3 use exactly this split.  It is a view of the repair's span
    tree (:meth:`from_spans`), not a clock of its own.
    """

    linregions_seconds: float = 0.0
    jacobian_seconds: float = 0.0
    lp_seconds: float = 0.0
    other_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total repair time."""
        return (
            self.linregions_seconds
            + self.jacobian_seconds
            + self.lp_seconds
            + self.other_seconds
        )

    @classmethod
    def from_spans(cls, *spans: Span) -> "RepairTiming":
        """The split of the finished ``spans``' summed wall time.

        LinRegions is the time in ``repair.linregions`` spans, Jacobian in
        ``repair.encode`` (constraint-row encoding and LP row ingestion), LP
        in ``lp.solve`` (the three never nest in one another); "other" is
        the remainder, so the total is the spans' wall time.
        """
        linregions, jacobian, lp = (
            sum((span.seconds_in(name) for span in spans), 0.0)
            for name in ("repair.linregions", "repair.encode", "lp.solve")
        )
        wall = sum((span.wall_seconds for span in spans), 0.0)
        return cls(linregions, jacobian, lp, wall - linregions - jacobian - lp)

    def as_dict(self) -> dict[str, float]:
        """The breakdown as a plain dictionary (used by the reporting code)."""
        return {
            "linregions": self.linregions_seconds,
            "jacobian": self.jacobian_seconds,
            "lp": self.lp_seconds,
            "other": self.other_seconds,
            "total": self.total_seconds,
        }


@dataclass
class RepairResult:
    """Outcome of a provable repair attempt.

    Attributes
    ----------
    feasible:
        ``True`` if a satisfying single-layer repair exists and was found.
        ``False`` means the LP proved that *no* repair of the chosen layer
        satisfies the specification (the paper's ⊥ result).
    network:
        The repaired :class:`DecoupledNetwork` (``None`` when infeasible).
    delta:
        The parameter delta applied to the repaired layer (``None`` when
        infeasible).
    layer_index:
        Index of the repaired layer.
    lp_status:
        Raw status of the LP solve.
    timing:
        Wall-clock breakdown, set by :func:`~repro.core.point_repair.point_repair`
        and :func:`~repro.core.polytope_repair.polytope_repair` from their
        span (all zero on a bare session solve, which a caller's span times).
    num_key_points, num_constraint_rows, num_variables:
        LP size statistics (for the efficiency analyses of RQ4).
    objective_value:
        Optimal objective (the minimized norm surrogate), when feasible.
    norm:
        Which norm objective was minimized (``"l1"``, ``"linf"``, ...).
    """

    feasible: bool
    network: DecoupledNetwork | None
    delta: np.ndarray | None
    layer_index: int
    lp_status: LPStatus
    timing: RepairTiming = field(default_factory=RepairTiming)
    num_key_points: int = 0
    num_constraint_rows: int = 0
    num_variables: int = 0
    objective_value: float | None = None
    norm: str = "linf"

    @property
    def delta_linf_norm(self) -> float:
        """ℓ∞ norm of the applied delta (0.0 when infeasible)."""
        if self.delta is None or self.delta.size == 0:
            return 0.0
        return float(np.max(np.abs(self.delta)))

    @property
    def delta_l1_norm(self) -> float:
        """ℓ1 norm of the applied delta (0.0 when infeasible)."""
        if self.delta is None or self.delta.size == 0:
            return 0.0
        return float(np.sum(np.abs(self.delta)))

    def summary(self) -> dict:
        """A flat summary dictionary used by the experiment reporting code."""
        return {
            "feasible": self.feasible,
            "layer_index": self.layer_index,
            "lp_status": self.lp_status.value,
            "num_key_points": self.num_key_points,
            "num_constraint_rows": self.num_constraint_rows,
            "num_variables": self.num_variables,
            "delta_linf": self.delta_linf_norm,
            "delta_l1": self.delta_l1_norm,
            "norm": self.norm,
            **{f"time_{key}": value for key, value in self.timing.as_dict().items()},
        }
