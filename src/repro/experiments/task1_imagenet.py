"""Task 1: pointwise repair of a convolutional image classifier.

Mirrors §7.1 of the paper: the buggy network is a convolutional classifier
(MiniSqueezeNet standing in for SqueezeNet), the repair set is drawn from a
pool of "natural adversarial" images the network misclassifies, the drawdown
set is the held-out clean validation set, and repairs are attempted at every
convolutional layer.  The outputs of this module feed Table 1, Table 4, and
Figure 7.

The module also hosts the *driver-certified* variant of the task: a
feasible-by-construction classifier-perturbation workload
(:func:`classifier_perturbation_workload`) scalable to 10⁵+ constraint rows,
its pointwise :class:`~repro.verify.base.VerificationSpec`
(:func:`pointwise_verification_spec`), and the closed-loop entry point
(:func:`driver_certified_repair`) that runs the full
:class:`~repro.driver.driver.RepairDriver` CEGIS loop — with the out-of-core
chunked Jacobian→LP pipeline and the spilling counterexample pool when a
``memory_budget`` is set — to a *certified* SqueezeNet-mini repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.fine_tune import fine_tune
from repro.baselines.modified_fine_tune import modified_fine_tune
from repro.core.point_repair import point_repair
from repro.core.specs import PointRepairSpec, classification_constraint
from repro.driver.config import DriverConfig
from repro.driver.driver import DriverReport, RepairDriver
from repro.experiments.metrics import accuracy_percent, drawdown, efficacy
from repro.models.squeezenet_mini import build_mini_squeezenet
from repro.models.zoo import ModelZoo
from repro.nn.network import Network
from repro.utils.rng import ensure_rng
from repro.verify.base import VerificationSpec, frozen_constraint
from repro.verify.sampling import GridVerifier

#: Margin used for the "classified as label y" constraints; a small positive
#: margin keeps repaired classifications strict under floating-point noise.
CLASSIFICATION_MARGIN = 1e-3


@dataclass
class Task1Setup:
    """Everything Task 1 needs: the buggy network and the evaluation sets."""

    network: Network
    repair_pool_images: np.ndarray
    repair_pool_labels: np.ndarray
    drawdown_images: np.ndarray
    drawdown_labels: np.ndarray
    buggy_pool_accuracy: float
    buggy_drawdown_accuracy: float

    @property
    def repairable_layers(self) -> list[int]:
        """Indices of the convolutional (repairable) layers."""
        return self.network.parameterized_layer_indices()

    def repair_subset(self, num_points: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``num_points`` images of the adversarial pool."""
        count = min(num_points, self.repair_pool_images.shape[0])
        return self.repair_pool_images[:count], self.repair_pool_labels[:count]


def setup_task1(
    zoo: ModelZoo | None = None,
    *,
    train_per_class: int = 40,
    validation_per_class: int = 20,
    adversarial_per_class: int = 25,
    epochs: int = 25,
    seed: int = 0,
) -> Task1Setup:
    """Generate the data, train (or load) the buggy network, and bundle it up."""
    zoo = zoo if zoo is not None else ModelZoo()
    dataset = zoo.mini_imagenet(
        train_per_class=train_per_class,
        validation_per_class=validation_per_class,
        adversarial_per_class=adversarial_per_class,
        seed=seed,
    )
    network = zoo.mini_squeezenet(dataset, epochs=epochs, seed=seed)
    return Task1Setup(
        network=network,
        repair_pool_images=dataset.adversarial_images,
        repair_pool_labels=dataset.adversarial_labels,
        drawdown_images=dataset.validation_images,
        drawdown_labels=dataset.validation_labels,
        buggy_pool_accuracy=accuracy_percent(
            network, dataset.adversarial_images, dataset.adversarial_labels
        ),
        buggy_drawdown_accuracy=accuracy_percent(
            network, dataset.validation_images, dataset.validation_labels
        ),
    )


def provable_repair_per_layer(
    setup: Task1Setup,
    num_points: int,
    layer_indices: list[int] | None = None,
    *,
    norm: str = "linf",
    margin: float = CLASSIFICATION_MARGIN,
) -> list[dict]:
    """Run Provable Repair at each requested layer; one record per layer.

    Each record carries feasibility, efficacy (100 when feasible), drawdown,
    and the timing breakdown — the raw material of Table 1/Table 4/Figure 7.
    """
    points, labels = setup.repair_subset(num_points)
    spec = PointRepairSpec.from_labels(
        points, labels, num_classes=setup.network.output_size, margin=margin
    )
    layer_indices = layer_indices if layer_indices is not None else setup.repairable_layers
    records = []
    for layer_index in layer_indices:
        result = point_repair(setup.network, layer_index, spec, norm=norm)
        record = {
            "method": "PR",
            "layer_index": layer_index,
            "num_points": points.shape[0],
            "feasible": result.feasible,
            **{f"time_{key}": value for key, value in result.timing.as_dict().items()},
        }
        if result.feasible:
            record["efficacy"] = efficacy(result.network, points, labels)
            record["drawdown"] = drawdown(
                setup.network, result.network, setup.drawdown_images, setup.drawdown_labels
            )
            record["delta_linf"] = result.delta_linf_norm
        else:
            record["efficacy"] = float("nan")
            record["drawdown"] = float("nan")
            record["delta_linf"] = float("nan")
        records.append(record)
    return records


def best_drawdown_record(records: list[dict]) -> dict:
    """The feasible per-layer record with the smallest drawdown (Table 1's "BD")."""
    feasible = [record for record in records if record["feasible"]]
    if not feasible:
        raise ValueError("no layer admitted a feasible repair")
    return min(feasible, key=lambda record: record["drawdown"])


def fine_tune_baseline(
    setup: Task1Setup,
    num_points: int,
    *,
    learning_rate: float = 0.01,
    batch_size: int = 2,
    max_epochs: int = 200,
    seed: int = 0,
) -> dict:
    """The FT baseline on the same repair set (one hyperparameter setting)."""
    points, labels = setup.repair_subset(num_points)
    result = fine_tune(
        setup.network,
        points,
        labels,
        learning_rate=learning_rate,
        batch_size=batch_size,
        max_epochs=max_epochs,
        seed=seed,
    )
    return {
        "method": "FT",
        "num_points": points.shape[0],
        "converged": result.converged,
        "efficacy": 100.0 * result.final_accuracy,
        "drawdown": drawdown(
            setup.network, result.network, setup.drawdown_images, setup.drawdown_labels
        ),
        "time_total": result.seconds,
    }


def modified_fine_tune_baseline(
    setup: Task1Setup,
    num_points: int,
    layer_indices: list[int] | None = None,
    *,
    learning_rate: float = 0.01,
    batch_size: int = 2,
    max_epochs: int = 60,
    seed: int = 0,
) -> dict:
    """The MFT baseline: tune each layer separately, report the best drawdown."""
    points, labels = setup.repair_subset(num_points)
    layer_indices = layer_indices if layer_indices is not None else setup.repairable_layers
    best: dict | None = None
    for layer_index in layer_indices:
        result = modified_fine_tune(
            setup.network,
            points,
            labels,
            layer_index,
            learning_rate=learning_rate,
            batch_size=batch_size,
            max_epochs=max_epochs,
            seed=seed,
        )
        record = {
            "method": "MFT",
            "layer_index": layer_index,
            "num_points": points.shape[0],
            "efficacy": 100.0 * result.efficacy,
            "drawdown": drawdown(
                setup.network, result.network, setup.drawdown_images, setup.drawdown_labels
            ),
            "time_total": result.seconds,
        }
        if best is None or record["drawdown"] < best["drawdown"]:
            best = record
    assert best is not None
    return best


def table1(
    setup: Task1Setup,
    point_counts: list[int],
    *,
    norm: str = "linf",
    ft_hyperparameters: tuple[dict, dict] | None = None,
    mft_hyperparameters: tuple[dict, dict] | None = None,
) -> list[dict]:
    """Reproduce Table 1: one row per repair-set size.

    Each row reports the best-drawdown Provable Repair layer, the two FT
    hyperparameter settings, and the two MFT settings (best layer each).
    """
    if ft_hyperparameters is None:
        ft_hyperparameters = (
            {"learning_rate": 0.01, "batch_size": 2},
            {"learning_rate": 0.01, "batch_size": 16},
        )
    if mft_hyperparameters is None:
        mft_hyperparameters = (
            {"learning_rate": 0.01, "batch_size": 2},
            {"learning_rate": 0.01, "batch_size": 16},
        )
    rows = []
    for num_points in point_counts:
        pr_records = provable_repair_per_layer(setup, num_points, norm=norm)
        pr_best = best_drawdown_record(pr_records)
        ft_first = fine_tune_baseline(setup, num_points, **ft_hyperparameters[0])
        ft_second = fine_tune_baseline(setup, num_points, **ft_hyperparameters[1])
        mft_first = modified_fine_tune_baseline(setup, num_points, **mft_hyperparameters[0])
        mft_second = modified_fine_tune_baseline(setup, num_points, **mft_hyperparameters[1])
        rows.append(
            {
                "points": num_points,
                "pr_drawdown": pr_best["drawdown"],
                "pr_time": pr_best["time_total"],
                "ft1_drawdown": ft_first["drawdown"],
                "ft1_time": ft_first["time_total"],
                "ft2_drawdown": ft_second["drawdown"],
                "ft2_time": ft_second["time_total"],
                "mft1_efficacy": mft_first["efficacy"],
                "mft1_drawdown": mft_first["drawdown"],
                "mft1_time": mft_first["time_total"],
                "mft2_efficacy": mft_second["efficacy"],
                "mft2_drawdown": mft_second["drawdown"],
                "mft2_time": mft_second["time_total"],
            }
        )
    return rows


def pointwise_verification_spec(
    points: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    *,
    margin: float = CLASSIFICATION_MARGIN,
) -> VerificationSpec:
    """A verification spec with one degenerate box per classification point.

    Each point becomes a single-point :class:`~repro.verify.base.Box`
    region paired with a "classified as ``labels[i]`` by ``margin``"
    polytope — the closed-loop mirror of
    :meth:`PointRepairSpec.from_labels`.  Single-point regions are exactly
    what :class:`~repro.verify.sampling.GridVerifier` with
    ``certify_exhaustive=True`` can both sweep in one stacked pass and
    *certify*, so a driver run over this spec can terminate ``certified``.
    """
    labels = np.asarray(labels, dtype=int).ravel()
    if np.atleast_2d(points).shape[0] != labels.size:
        raise ValueError("one label per point is required")
    # Points with one label share one (frozen) constraint.
    by_label = {
        label: frozen_constraint(classification_constraint(num_classes, label, margin))
        for label in dict.fromkeys(labels.tolist())
    }
    return VerificationSpec.from_points(
        points,
        [by_label[label] for label in labels.tolist()],
        [f"point-{index}" for index in range(labels.size)],
    )


@dataclass
class PointwiseRepairWorkload:
    """A feasible-by-construction driver workload over MiniSqueezeNet.

    ``buggy`` is ``original`` with its classifier convolution perturbed by a
    known delta; ``points`` are inputs the original network classifies with
    a comfortable margin but the buggy network does not.  Restoring the
    classifier parameters exactly reproduces the original's outputs (the
    classifier feeds only the linear global-average pool, so no activation
    pattern downstream of the perturbation exists to disagree), so the
    repair LP is feasible at *any* number of points — which is what lets
    the workload scale to 10⁵+ constraint rows while staying certifiable.
    """

    original: Network
    buggy: Network
    points: np.ndarray
    labels: np.ndarray
    classifier_layer: int
    num_classes: int

    @property
    def num_points(self) -> int:
        """Number of repair points in the workload."""
        return self.points.shape[0]

    @property
    def constraint_rows(self) -> int:
        """LP constraint rows the pointwise spec expands to."""
        return self.num_points * (self.num_classes - 1)

    def verification_spec(self, margin: float = CLASSIFICATION_MARGIN) -> VerificationSpec:
        """The pointwise verification spec of this workload."""
        return pointwise_verification_spec(
            self.points, self.labels, self.num_classes, margin=margin
        )


def _argmax_margins(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row margin of ``labels`` over the best competing class."""
    rows = np.arange(logits.shape[0])
    masked = logits.copy()
    masked[rows, labels] = -np.inf
    return logits[rows, labels] - np.max(masked, axis=1)


def classifier_perturbation_workload(
    num_points: int,
    *,
    side: int = 16,
    num_classes: int = 9,
    seed: int = 0,
    bug_class: int = 0,
    label_margin: float = 1e-2,
    violation_margin: float = 1e-4,
    batch_size: int = 1024,
) -> PointwiseRepairWorkload:
    """Build a scalable, certifiably repairable classification workload.

    An untrained MiniSqueezeNet's logits are dominated by the classifier
    biases (it classifies everything as one class), so the classifier
    biases are first *calibrated* — shifted so every class's mean logit
    over a probe batch is zero — which makes the argmax input-driven.  The
    bug is then a targeted boost of ``bug_class``'s classifier bias, sized
    from the probe batch's measured margin distribution so that the buggy
    network misclassifies the vast majority of inputs whose true label is
    another class.  Candidate inputs are drawn uniformly from the image
    cube and kept when the calibrated network's own argmax margin exceeds
    ``label_margin`` *and* the buggy network violates the classification
    constraint by more than ``violation_margin`` — so round 1 of a driver
    run pools every spec point, and the exact inverse of the bias boost
    witnesses LP feasibility at any workload size.  Candidates are
    generated in ``batch_size`` chunks to bound the working set regardless
    of ``num_points``.
    """
    if num_points < 1:
        raise ValueError("num_points must be positive")
    if not 0 <= bug_class < num_classes:
        raise ValueError("bug_class must name one of the classes")
    rng = ensure_rng(seed)
    original = build_mini_squeezenet(side=side, num_classes=num_classes, seed=seed)
    classifier_layer = original.parameterized_layer_indices()[-1]
    layer = original.layers[classifier_layer]

    # Calibrate: a classifier-conv bias shifts its class's global-average
    # logit one-for-one, so subtracting the probe-batch mean logits centers
    # every class and the argmax becomes input-driven.
    probe = rng.uniform(0.0, 1.0, size=(batch_size, original.input_size))
    parameters = layer.get_parameters()
    parameters[-num_classes:] -= np.mean(original.compute(probe), axis=0)
    layer.set_parameters(parameters)

    # Size the bug from the calibrated margin distribution: boosting
    # ``bug_class`` past the 95th percentile of (label logit − bug-class
    # logit) flips ~95% of other-class inputs to the bug class.
    logits = original.compute(probe)
    labels = np.argmax(logits, axis=1)
    others = labels != bug_class
    gaps = logits[others, labels[others]] - logits[others, bug_class]
    boost = float(np.percentile(gaps, 95)) + label_margin + CLASSIFICATION_MARGIN

    buggy = original.copy()
    parameters = buggy.layers[classifier_layer].get_parameters()
    parameters[-num_classes + bug_class] += boost
    buggy.layers[classifier_layer].set_parameters(parameters)

    kept_points: list[np.ndarray] = []
    kept_labels: list[np.ndarray] = []
    kept = 0
    for _ in range(max(64, 8 * -(-num_points // batch_size))):
        if kept >= num_points:
            break
        candidates = rng.uniform(0.0, 1.0, size=(batch_size, original.input_size))
        original_logits = original.compute(candidates)
        labels = np.argmax(original_logits, axis=1)
        original_margin = _argmax_margins(original_logits, labels)
        buggy_margin = _argmax_margins(buggy.compute(candidates), labels)
        selected = np.where(
            (original_margin >= label_margin)
            & (buggy_margin < CLASSIFICATION_MARGIN - violation_margin)
        )[0]
        if selected.size:
            selected = selected[: num_points - kept]
            kept_points.append(candidates[selected])
            kept_labels.append(labels[selected])
            kept += selected.size
    if kept < num_points:
        raise RuntimeError(
            f"only {kept}/{num_points} violating candidates found; "
            "loosen label_margin or change the seed"
        )
    return PointwiseRepairWorkload(
        original=original,
        buggy=buggy,
        points=np.vstack(kept_points),
        labels=np.concatenate(kept_labels),
        classifier_layer=classifier_layer,
        num_classes=num_classes,
    )


def driver_certified_repair(
    workload: PointwiseRepairWorkload,
    *,
    memory_budget: int | None = None,
    max_rounds: int = 4,
    budget_seconds: float | None = None,
    checkpoint_path=None,
    on_round=None,
) -> tuple[DriverReport, RepairDriver]:
    """Run the full CEGIS driver on a pointwise workload, aiming for *certified*.

    This is the first driver-certified path through the Task 1 models: the
    exhaustively-certifying grid verifier sweeps the pointwise spec in one
    stacked pass per round, the driver's standing LP session absorbs the
    pooled points, and — when ``memory_budget`` is set — constraint rows
    stream through :class:`~repro.core.jacobian.JacobianChunkStream` while
    old pool entries spill to disk, keeping peak memory bounded at 10⁵+
    rows.  Returns ``(report, driver)`` so callers can inspect the pool's
    spill statistics alongside the report.
    """
    verifier = GridVerifier(certify_exhaustive=True)
    config = DriverConfig(
        layer_schedule=(workload.classifier_layer,),
        max_rounds=max_rounds,
        budget_seconds=budget_seconds,
        memory_budget=memory_budget,
    )
    driver = RepairDriver(
        workload.buggy,
        workload.verification_spec(),
        verifier,
        config=config,
        checkpoint_path=checkpoint_path,
        on_round=on_round,
    )
    return driver.run(), driver


def table4(setup: Task1Setup, point_counts: list[int], *, norm: str = "linf") -> list[dict]:
    """Reproduce the appendix Table 4: per-size layer feasibility and extremes."""
    rows = []
    for num_points in point_counts:
        records = provable_repair_per_layer(setup, num_points, norm=norm)
        feasible = [record for record in records if record["feasible"]]
        drawdowns = [record["drawdown"] for record in feasible]
        times = [record["time_total"] for record in feasible]
        best = best_drawdown_record(records) if feasible else None
        rows.append(
            {
                "points": num_points,
                "feasible_layers": len(feasible),
                "total_layers": len(records),
                "best_drawdown": min(drawdowns) if drawdowns else float("nan"),
                "worst_drawdown": max(drawdowns) if drawdowns else float("nan"),
                "fastest_time": min(times) if times else float("nan"),
                "slowest_time": max(times) if times else float("nan"),
                "best_drawdown_time": best["time_total"] if best else float("nan"),
            }
        )
    return rows
