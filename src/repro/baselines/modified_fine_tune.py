"""The MFT baseline: single-layer fine-tuning with early stopping.

MFT (paper §7, "Fine-Tuning Baselines") differs from FT in four ways:

(a) only a single layer is fine-tuned;
(b) a loss term penalizes the size of the parameter change;
(c) 25% of the repair set is held out;
(d) training stops once accuracy on the holdout set starts dropping.

Because of the early stopping MFT generally does *not* reach 100% efficacy —
it is not a repair algorithm — but its drawdown is low, which is exactly the
trade-off the paper's Tables 1 and 3 report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.nn.network import Network
from repro.nn.train import SGDTrainer, TrainingConfig
from repro.utils.rng import ensure_rng


@dataclass
class ModifiedFineTuneResult:
    """Outcome of an MFT run."""

    network: Network
    layer_index: int
    efficacy: float
    epochs_run: int
    seconds: float


def modified_fine_tune(
    network: Network,
    repair_inputs: np.ndarray,
    repair_labels: np.ndarray,
    layer_index: int,
    *,
    learning_rate: float = 0.01,
    momentum: float = 0.9,
    batch_size: int = 16,
    max_epochs: int = 200,
    holdout_fraction: float = 0.25,
    change_penalty: float = 1e-3,
    patience: int = 3,
    seed: int = 0,
) -> ModifiedFineTuneResult:
    """Fine-tune a single layer of a copy of ``network`` with early stopping.

    ``change_penalty`` weights an ℓ2 penalty that pulls the tuned layer's
    parameters back toward their original values (the practical analogue of
    the paper's ℓ0/ℓ∞ penalty, which is not differentiable); ``patience``
    epochs of non-improving holdout accuracy trigger early stopping and the
    best-so-far parameters are restored.
    """
    with obs.timed("baseline.modified_fine_tune", layer=layer_index) as span:
        rng = ensure_rng(seed)
        repair_inputs = np.atleast_2d(np.asarray(repair_inputs, dtype=np.float64))
        repair_labels = np.asarray(repair_labels, dtype=int)

        order = rng.permutation(repair_inputs.shape[0])
        holdout_size = max(1, int(round(holdout_fraction * order.size)))
        holdout_idx, train_idx = order[:holdout_size], order[holdout_size:]
        if train_idx.size == 0:
            train_idx = holdout_idx
        train_inputs, train_labels = repair_inputs[train_idx], repair_labels[train_idx]
        holdout_inputs, holdout_labels = repair_inputs[holdout_idx], repair_labels[holdout_idx]

        tuned = network.copy()
        original_parameters = tuned.layers[layer_index].get_parameters()
        config = TrainingConfig(
            learning_rate=learning_rate,
            momentum=momentum,
            batch_size=batch_size,
            epochs=max_epochs,
            only_layer=layer_index,
            weight_decay=0.0,
            seed=seed,
        )
        trainer = SGDTrainer(tuned, config)

        best_holdout = tuned.accuracy(holdout_inputs, holdout_labels)
        best_parameters = original_parameters.copy()
        epochs_without_improvement = 0
        epochs_run = 0
        for _ in range(max_epochs):
            trainer.train_epoch(train_inputs, train_labels, rng=rng)
            # Pull the layer back toward its original parameters (change penalty).
            if change_penalty > 0.0:
                layer = tuned.layers[layer_index]
                current = layer.get_parameters()
                layer.set_parameters(current - change_penalty * (current - original_parameters))
            epochs_run += 1
            holdout_accuracy = tuned.accuracy(holdout_inputs, holdout_labels)
            if holdout_accuracy > best_holdout + 1e-9:
                best_holdout = holdout_accuracy
                best_parameters = tuned.layers[layer_index].get_parameters()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= patience:
                    break
        tuned.layers[layer_index].set_parameters(best_parameters)
        efficacy = tuned.accuracy(repair_inputs, repair_labels)
    return ModifiedFineTuneResult(
        network=tuned,
        layer_index=layer_index,
        efficacy=efficacy,
        epochs_run=epochs_run,
        seconds=span.wall_seconds,
    )
