"""The FT baseline: fine-tune all parameters until the repair set is fixed.

Following the paper (§7, "Fine-Tuning Baselines"), FT runs plain SGD on the
entire network using only the repair set, stopping as soon as every repair
point is classified correctly (or an epoch limit is hit — the paper observed
FT diverging and timing out for some hyperparameter choices, which the
``converged`` flag reports faithfully).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.nn.network import Network
from repro.nn.train import SGDTrainer, TrainingConfig


@dataclass
class FineTuneResult:
    """Outcome of an FT run."""

    network: Network
    converged: bool
    epochs_run: int
    final_accuracy: float
    seconds: float

    @property
    def efficacy(self) -> float:
        """Accuracy on the repair set after fine-tuning (1.0 when converged)."""
        return self.final_accuracy


def fine_tune(
    network: Network,
    repair_inputs: np.ndarray,
    repair_labels: np.ndarray,
    *,
    learning_rate: float = 0.01,
    momentum: float = 0.0,
    batch_size: int = 16,
    max_epochs: int = 1000,
    seed: int = 0,
) -> FineTuneResult:
    """Fine-tune a copy of ``network`` until the repair set is fully correct.

    The original network is left untouched; the returned result holds the
    fine-tuned copy.  ``converged=False`` means the epoch limit was reached
    without reaching 100% accuracy on the repair set (the paper's "timed
    out / diverged" outcome).
    """
    with obs.timed("baseline.fine_tune") as span:
        tuned = network.copy()
        config = TrainingConfig(
            learning_rate=learning_rate,
            momentum=momentum,
            batch_size=batch_size,
            epochs=max_epochs,
            seed=seed,
        )
        trainer = SGDTrainer(tuned, config)
        history = trainer.train(
            repair_inputs, repair_labels, epochs=max_epochs, stop_at_full_accuracy=True
        )
    accuracy = history.final_accuracy
    return FineTuneResult(
        network=tuned,
        converged=accuracy >= 1.0,
        epochs_run=len(history.losses),
        final_accuracy=accuracy,
        seconds=span.wall_seconds,
    )
