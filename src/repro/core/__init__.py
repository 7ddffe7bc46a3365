"""The paper's contribution: Decoupled DNNs and the provable repair algorithms.

* :class:`repro.core.ddnn.DecoupledNetwork` — the Decoupled DNN architecture
  of §4: an activation channel (the original network) plus a value channel
  whose activations are replaced by linearizations around the activation
  channel's pre-activations.
* :func:`repro.core.point_repair.point_repair` — Algorithm 1: provable
  pointwise repair of a single (value-channel) layer via an LP.
* :func:`repro.core.polytope_repair.polytope_repair` — Algorithm 2: provable
  polytope repair of piecewise-linear networks, reduced to pointwise repair
  on the vertices of the specification polytopes' linear regions.
* :mod:`repro.core.specs` — pointwise and polytope repair specifications.
"""

from repro.core.ddnn import DecoupledNetwork
from repro.core.specs import (
    OutputConstraint,
    PointRepairSpec,
    PolytopeRepairSpec,
    classification_constraint,
)
from repro.core.point_repair import IncrementalPointRepairSession, point_repair
from repro.core.polytope_repair import polytope_repair
from repro.core.result import RepairResult, RepairTiming

__all__ = [
    "DecoupledNetwork",
    "OutputConstraint",
    "PointRepairSpec",
    "PolytopeRepairSpec",
    "classification_constraint",
    "point_repair",
    "IncrementalPointRepairSession",
    "polytope_repair",
    "RepairResult",
    "RepairTiming",
]
