"""Task 2: 1-D polytope repair of a digit classifier on fog lines.

Mirrors §7.2 of the paper: each repair polytope is the line segment from a
clean digit image to its fog-corrupted version, and the specification
requires every point of the line to be classified as the clean image's
label.  Provable Polytope Repair is compared against FT and MFT, which are
only given finitely many sampled points from the lines.  The outputs of this
module feed Table 2 and Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.fine_tune import fine_tune
from repro.baselines.modified_fine_tune import modified_fine_tune
from repro.core.polytope_repair import polytope_repair, reduce_to_key_points
from repro.core.specs import PolytopeRepairSpec, classification_constraint
from repro.datasets.corruptions import corrupt_batch, fog_corrupt
from repro.datasets.digits import DigitDataset
from repro.experiments.metrics import accuracy_percent, drawdown, generalization
from repro.models.mnist_models import DIGIT_LAYER_2_INDEX, DIGIT_LAYER_3_INDEX
from repro.models.zoo import ModelZoo
from repro.nn.network import Network
from repro.polytope.segment import LineSegment
from repro.utils.rng import ensure_rng

#: Margin for the classification constraints along the repaired lines.
CLASSIFICATION_MARGIN = 1e-3


@dataclass
class Task2Setup:
    """The buggy digit network, the fog lines, and the evaluation sets."""

    network: Network
    dataset: DigitDataset
    lines: list[LineSegment]
    line_labels: np.ndarray
    generalization_images: np.ndarray
    generalization_labels: np.ndarray
    drawdown_images: np.ndarray
    drawdown_labels: np.ndarray
    buggy_fog_accuracy: float
    buggy_clean_accuracy: float

    @property
    def layer_2_index(self) -> int:
        """Index of the middle fully-connected layer ("Layer 2" of Table 2)."""
        return DIGIT_LAYER_2_INDEX

    @property
    def layer_3_index(self) -> int:
        """Index of the final fully-connected layer ("Layer 3" of Table 2)."""
        return DIGIT_LAYER_3_INDEX


def setup_task2(
    zoo: ModelZoo | None = None,
    *,
    max_lines: int = 100,
    train_per_class: int = 60,
    test_per_class: int = 40,
    epochs: int = 30,
    fog_severity: float = 1.0,
    hidden_sizes: tuple[int, int] = (64, 32),
    seed: int = 0,
) -> Task2Setup:
    """Generate data, train (or load) the digit network, and build fog lines.

    ``hidden_sizes`` selects the classifier width; the zoo caches one
    trained network per configuration, so sweeps over widths (or smaller
    smoke-test networks) do not retrain the default.
    """
    zoo = zoo if zoo is not None else ModelZoo()
    rng = ensure_rng(seed)
    dataset = zoo.digit_dataset(train_per_class, test_per_class, seed=seed)
    network = zoo.digit_network(dataset, hidden_sizes=hidden_sizes, epochs=epochs, seed=seed)

    # Fog-corrupted copy of the whole test set (the generalization set).
    fog_images = corrupt_batch(
        dataset.test_images, fog_corrupt, severity=fog_severity, rng=rng, side=dataset.side
    )

    # Lines from clean test images to their fog-corrupted versions.  The paper
    # builds its lines from the images it wants repaired; we take the first
    # ``max_lines`` test images (their fog endpoints are typically
    # misclassified by the buggy network).
    lines = [
        LineSegment(dataset.test_images[index], fog_images[index]) for index in range(max_lines)
    ]
    line_labels = dataset.test_labels[:max_lines].copy()

    return Task2Setup(
        network=network,
        dataset=dataset,
        lines=lines,
        line_labels=line_labels,
        generalization_images=fog_images,
        generalization_labels=dataset.test_labels.copy(),
        drawdown_images=dataset.test_images.copy(),
        drawdown_labels=dataset.test_labels.copy(),
        buggy_fog_accuracy=accuracy_percent(network, fog_images, dataset.test_labels),
        buggy_clean_accuracy=accuracy_percent(
            network, dataset.test_images, dataset.test_labels
        ),
    )


def line_specification(setup: Task2Setup, num_lines: int, margin: float = CLASSIFICATION_MARGIN) -> PolytopeRepairSpec:
    """The polytope specification over the first ``num_lines`` fog lines."""
    num_lines = min(num_lines, len(setup.lines))
    spec = PolytopeRepairSpec()
    for index in range(num_lines):
        constraint = classification_constraint(
            setup.network.output_size, int(setup.line_labels[index]), margin
        )
        spec.add_segment(setup.lines[index], constraint)
    return spec


#: Margin of the strengthened fog-line specification (see below).
STRENGTHENED_MARGIN = 5e-2


def strengthened_line_specification(
    setup: Task2Setup, num_lines: int, margin: float = STRENGTHENED_MARGIN
) -> PolytopeRepairSpec:
    """The fog-line specification with a decisively strengthened margin.

    Same lines and labels as :func:`line_specification`, but the winning
    logit must beat every other logit by ``margin`` (default 0.05 instead of
    0.001) at *every* point of every line.  The stronger obligation violates
    many more linear regions — including regions whose classification was
    already correct but marginal — which is the regime the polytope-CEGIS
    driver exists for: many rounds of region discovery, incremental LP
    growth, and cached re-verification.
    """
    return line_specification(setup, num_lines, margin=margin)


def provable_line_repair(
    setup: Task2Setup,
    num_lines: int,
    layer_index: int,
    *,
    norm: str = "linf",
) -> dict:
    """Provable Polytope Repair of ``layer_index`` on the first ``num_lines`` lines."""
    spec = line_specification(setup, num_lines)
    result = polytope_repair(setup.network, layer_index, spec, norm=norm)
    record = {
        "method": "PR",
        "layer_index": layer_index,
        "lines": min(num_lines, len(setup.lines)),
        "key_points": result.num_key_points,
        "feasible": result.feasible,
        **{f"time_{key}": value for key, value in result.timing.as_dict().items()},
    }
    if result.feasible:
        record["drawdown"] = drawdown(
            setup.network, result.network, setup.drawdown_images, setup.drawdown_labels
        )
        record["generalization"] = generalization(
            setup.network,
            result.network,
            setup.generalization_images,
            setup.generalization_labels,
        )
        # Efficacy check on dense samples along the repaired lines (the
        # guarantee covers *all* points; sampling is only a sanity check).
        record["efficacy"] = _line_efficacy(result.network, setup, num_lines)
    else:
        record["drawdown"] = float("nan")
        record["generalization"] = float("nan")
        record["efficacy"] = float("nan")
    return record


def _line_efficacy(network, setup: Task2Setup, num_lines: int, samples_per_line: int = 9) -> float:
    """Accuracy of ``network`` on dense samples of the repaired lines (percent)."""
    num_lines = min(num_lines, len(setup.lines))
    ratios = np.linspace(0.0, 1.0, samples_per_line)
    points, labels = [], []
    for index in range(num_lines):
        points.append(setup.lines[index].points_at(ratios))
        labels.extend([setup.line_labels[index]] * samples_per_line)
    return 100.0 * network.accuracy(np.vstack(points), np.array(labels, dtype=int))


def sampled_line_points(
    setup: Task2Setup, num_lines: int, total_points: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Finite samples from the lines for the FT/MFT baselines.

    The paper gives the baselines "the same number of randomly-sampled points
    as key points in the PR algorithm"; callers pass that count as
    ``total_points``.
    """
    num_lines = min(num_lines, len(setup.lines))
    rng = ensure_rng(seed)
    per_line = max(2, int(np.ceil(total_points / num_lines)))
    points, labels = [], []
    for index in range(num_lines):
        sampled = setup.lines[index].sample(per_line, rng)
        points.append(sampled)
        labels.extend([setup.line_labels[index]] * per_line)
    points = np.vstack(points)[:total_points]
    labels = np.array(labels, dtype=int)[:total_points]
    return points, labels


def fine_tune_lines(
    setup: Task2Setup,
    num_lines: int,
    num_sample_points: int,
    *,
    learning_rate: float = 0.05,
    momentum: float = 0.9,
    batch_size: int = 16,
    max_epochs: int = 500,
    seed: int = 0,
) -> dict:
    """The FT baseline on sampled line points."""
    points, labels = sampled_line_points(setup, num_lines, num_sample_points, seed=seed)
    result = fine_tune(
        setup.network,
        points,
        labels,
        learning_rate=learning_rate,
        momentum=momentum,
        batch_size=batch_size,
        max_epochs=max_epochs,
        seed=seed,
    )
    return {
        "method": "FT",
        "lines": min(num_lines, len(setup.lines)),
        "converged": result.converged,
        "efficacy": 100.0 * result.final_accuracy,
        "drawdown": drawdown(
            setup.network, result.network, setup.drawdown_images, setup.drawdown_labels
        ),
        "generalization": generalization(
            setup.network, result.network, setup.generalization_images, setup.generalization_labels
        ),
        "time_total": result.seconds,
    }


def modified_fine_tune_lines(
    setup: Task2Setup,
    num_lines: int,
    num_sample_points: int,
    layer_index: int,
    *,
    learning_rate: float = 0.05,
    momentum: float = 0.9,
    batch_size: int = 16,
    max_epochs: int = 100,
    seed: int = 0,
) -> dict:
    """The MFT baseline on sampled line points, tuning a single layer."""
    points, labels = sampled_line_points(setup, num_lines, num_sample_points, seed=seed)
    result = modified_fine_tune(
        setup.network,
        points,
        labels,
        layer_index,
        learning_rate=learning_rate,
        momentum=momentum,
        batch_size=batch_size,
        max_epochs=max_epochs,
        seed=seed,
    )
    return {
        "method": "MFT",
        "layer_index": layer_index,
        "lines": min(num_lines, len(setup.lines)),
        "efficacy": 100.0 * result.efficacy,
        "drawdown": drawdown(
            setup.network, result.network, setup.drawdown_images, setup.drawdown_labels
        ),
        "generalization": generalization(
            setup.network, result.network, setup.generalization_images, setup.generalization_labels
        ),
        "time_total": result.seconds,
    }


def table2(
    setup: Task2Setup,
    line_counts: list[int],
    *,
    norm: str = "linf",
    ft_hyperparameters: tuple[dict, dict] | None = None,
) -> list[dict]:
    """Reproduce Table 2: PR (layers 2 and 3) vs FT[1]/FT[2] per line count."""
    if ft_hyperparameters is None:
        ft_hyperparameters = (
            {"learning_rate": 0.05, "batch_size": 16},
            {"learning_rate": 0.01, "batch_size": 16},
        )
    rows = []
    for num_lines in line_counts:
        pr_layer2 = provable_line_repair(setup, num_lines, setup.layer_2_index, norm=norm)
        pr_layer3 = provable_line_repair(setup, num_lines, setup.layer_3_index, norm=norm)
        key_points = pr_layer3["key_points"]
        ft_first = fine_tune_lines(setup, num_lines, key_points, **ft_hyperparameters[0])
        ft_second = fine_tune_lines(setup, num_lines, key_points, **ft_hyperparameters[1])
        rows.append(
            {
                "lines": num_lines,
                "key_points": key_points,
                "pr2_drawdown": pr_layer2["drawdown"],
                "pr2_generalization": pr_layer2["generalization"],
                "pr2_time": pr_layer2["time_total"],
                "pr3_drawdown": pr_layer3["drawdown"],
                "pr3_generalization": pr_layer3["generalization"],
                "pr3_time": pr_layer3["time_total"],
                "ft1_drawdown": ft_first["drawdown"],
                "ft1_generalization": ft_first["generalization"],
                "ft1_time": ft_first["time_total"],
                "ft2_drawdown": ft_second["drawdown"],
                "ft2_generalization": ft_second["generalization"],
                "ft2_time": ft_second["time_total"],
            }
        )
    return rows


def table3(
    setup: Task2Setup,
    line_counts: list[int],
    *,
    mft_hyperparameters: tuple[dict, dict] | None = None,
) -> list[dict]:
    """Reproduce Table 3: MFT on layers 2 and 3 for two hyperparameter settings."""
    if mft_hyperparameters is None:
        mft_hyperparameters = (
            {"learning_rate": 0.05, "batch_size": 16},
            {"learning_rate": 0.01, "batch_size": 16},
        )
    rows = []
    for num_lines in line_counts:
        spec = line_specification(setup, num_lines)
        key_points = len(reduce_to_key_points(setup.network, spec)[0])
        row: dict = {"lines": num_lines, "key_points": key_points}
        for setting_index, hyper in enumerate(mft_hyperparameters, start=1):
            for layer_name, layer_index in (
                ("layer2", setup.layer_2_index),
                ("layer3", setup.layer_3_index),
            ):
                record = modified_fine_tune_lines(
                    setup, num_lines, key_points, layer_index, **hyper
                )
                prefix = f"mft{setting_index}_{layer_name}"
                row[f"{prefix}_efficacy"] = record["efficacy"]
                row[f"{prefix}_drawdown"] = record["drawdown"]
                row[f"{prefix}_generalization"] = record["generalization"]
                row[f"{prefix}_time"] = record["time_total"]
        rows.append(row)
    return rows
