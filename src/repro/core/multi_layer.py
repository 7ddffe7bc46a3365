"""Multi-layer and layer-search extensions of the repair algorithms.

The paper's conclusion (§9) sketches two practical extensions that this
module implements on top of Algorithms 1 and 2:

* **Iterative multi-layer repair** — when no single layer admits a repair
  (or a smaller aggregate change is wanted), apply the single-layer LP
  formulation to a sequence of layers, feeding each repaired DDNN into the
  next round and stopping as soon as the specification is satisfied.
* **Repair-layer search** — §7.1 observes that which layer is repaired
  drives the drawdown, and suggests a heuristic of focusing on later
  layers.  :func:`search_repair_layer` tries candidate layers (by default
  from the output backwards), scores each feasible repair with a
  user-supplied function (typically drawdown on a held-out set), and
  returns the best one.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.core.point_repair import point_repair
from repro.core.result import RepairResult
from repro.core.specs import PointRepairSpec
from repro.exceptions import RepairError
from repro.nn.network import Network


@dataclass
class MultiLayerRepairResult:
    """Outcome of an iterative multi-layer repair.

    Attributes
    ----------
    satisfied:
        Whether the final network satisfies the specification.
    network:
        The final DDNN (with all accepted per-layer deltas applied).
    per_layer_results:
        The single-layer :class:`RepairResult` of every round, in order.
    repaired_layers:
        Indices of the layers whose deltas were applied.
    """

    satisfied: bool
    network: DecoupledNetwork
    per_layer_results: list[RepairResult] = field(default_factory=list)
    repaired_layers: list[int] = field(default_factory=list)

    @property
    def total_delta_l1_norm(self) -> float:
        """Sum of the ℓ1 norms of all applied per-layer deltas."""
        return float(sum(result.delta_l1_norm for result in self.per_layer_results if result.feasible))


def iterative_point_repair(
    network: Network | DecoupledNetwork,
    layer_indices: Sequence[int],
    spec: PointRepairSpec,
    *,
    norm: str = "linf",
    stop_when_satisfied: bool = True,
) -> MultiLayerRepairResult:
    """Repair several layers in sequence until the specification holds.

    Each round runs Algorithm 1 on the *current* DDNN for the next layer in
    ``layer_indices`` and applies the resulting delta if one exists.  With
    ``stop_when_satisfied`` (the default) the loop exits as soon as the
    specification is met — often after the first feasible round, in which
    case the result is identical to single-layer repair.

    Rounds whose LP is infeasible are skipped (their layer simply cannot fix
    the remaining error on its own); the final ``satisfied`` flag reports
    whether the accumulated repairs meet the specification.
    """
    if not layer_indices:
        raise RepairError("iterative repair needs at least one layer index")
    ddnn = (
        network.copy()
        if isinstance(network, DecoupledNetwork)
        else DecoupledNetwork.from_network(network)
    )
    results: list[RepairResult] = []
    repaired: list[int] = []
    for layer_index in layer_indices:
        if stop_when_satisfied and spec.is_satisfied_by(ddnn):
            break
        result = point_repair(ddnn, layer_index, spec, norm=norm)
        results.append(result)
        if result.feasible:
            ddnn = result.network
            repaired.append(result.layer_index)
            if stop_when_satisfied:
                break
    return MultiLayerRepairResult(
        satisfied=spec.is_satisfied_by(ddnn),
        network=ddnn,
        per_layer_results=results,
        repaired_layers=repaired,
    )


@dataclass
class LayerSearchResult:
    """Outcome of a repair-layer search."""

    best_result: RepairResult | None
    best_score: float
    scores: dict[int, float] = field(default_factory=dict)
    infeasible_layers: list[int] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """Whether any candidate layer admitted a feasible repair."""
        return self.best_result is not None


def search_repair_layer(
    network: Network | DecoupledNetwork,
    spec: PointRepairSpec,
    score: Callable[[RepairResult], float],
    *,
    candidate_layers: Sequence[int] | None = None,
    norm: str = "linf",
    stop_at_score: float | None = None,
) -> LayerSearchResult:
    """Try repairing each candidate layer and keep the lowest-scoring repair.

    ``score`` maps a feasible :class:`RepairResult` to a number to minimize
    (e.g. drawdown on a held-out set, or the delta norm).  Candidates default
    to every repairable layer from the output backwards — the heuristic §7.1
    suggests for image networks.  ``stop_at_score`` short-circuits the search
    once a repair scores at or below the threshold.
    """
    ddnn = (
        network
        if isinstance(network, DecoupledNetwork)
        else DecoupledNetwork.from_network(network)
    )
    if candidate_layers is None:
        candidate_layers = list(reversed(ddnn.repairable_layer_indices()))
    best_result: RepairResult | None = None
    best_score = float("inf")
    scores: dict[int, float] = {}
    infeasible: list[int] = []
    for layer_index in candidate_layers:
        result = point_repair(ddnn, layer_index, spec, norm=norm)
        if not result.feasible:
            infeasible.append(layer_index)
            continue
        value = float(score(result))
        scores[result.layer_index] = value
        if value < best_score:
            best_score = value
            best_result = result
        if stop_at_score is not None and best_score <= stop_at_score:
            break
    return LayerSearchResult(
        best_result=best_result,
        best_score=best_score if best_result is not None else float("nan"),
        scores=scores,
        infeasible_layers=infeasible,
    )


def drawdown_score(
    buggy: Network | DecoupledNetwork,
    drawdown_inputs: np.ndarray,
    drawdown_labels: np.ndarray,
) -> Callable[[RepairResult], float]:
    """A ready-made score function: drawdown on a held-out set.

    Use with :func:`search_repair_layer`::

        search_repair_layer(net, spec, drawdown_score(net, held_out_x, held_out_y))
    """
    baseline = buggy.accuracy(drawdown_inputs, drawdown_labels)

    def score(result: RepairResult) -> float:
        assert result.network is not None
        return 100.0 * (baseline - result.network.accuracy(drawdown_inputs, drawdown_labels))

    return score
