"""The sequential network container."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import LayerError, ShapeError
from repro.nn.layer import Layer, LayerKind, as_batch


class Network:
    """A feed-forward network: an ordered list of layers.

    This corresponds to the paper's Definition 2.1/2.2 generalized to allow
    convolutional, pooling, and normalization layers in addition to the
    alternating linear/activation structure of the formal definition.
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise LayerError("a network needs at least one layer")
        for earlier, later in zip(layers, layers[1:]):
            if earlier.output_size != later.input_size:
                raise LayerError(
                    f"layer size mismatch: {earlier!r} feeds {later!r} "
                    f"({earlier.output_size} != {later.input_size})"
                )
        self.layers = list(layers)

    # ------------------------------------------------------------------
    # Shape info
    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        """Number of input features."""
        return self.layers[0].input_size

    @property
    def output_size(self) -> int:
        """Number of output features (e.g. classes)."""
        return self.layers[-1].output_size

    @property
    def num_parameters(self) -> int:
        """Total number of trainable parameters across all layers."""
        return sum(layer.num_parameters for layer in self.layers)

    def parameterized_layer_indices(self) -> list[int]:
        """Indices of layers that carry repairable parameters."""
        return [
            index
            for index, layer in enumerate(self.layers)
            if layer.kind is LayerKind.PARAMETERIZED
        ]

    def is_piecewise_linear(self) -> bool:
        """True if every activation layer is piecewise linear."""
        return all(
            layer.is_piecewise_linear
            for layer in self.layers
            if layer.kind is LayerKind.ACTIVATION
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the network; accepts a vector or a batch of vectors."""
        batch, was_vector = as_batch(values)
        if batch.shape[1] != self.input_size:
            raise ShapeError(
                f"expected inputs of size {self.input_size}, got {batch.shape[1]}"
            )
        current = batch
        for layer in self.layers:
            current = layer.forward(current)
        return current[0] if was_vector else current

    __call__ = compute

    def layer_inputs(self, values: np.ndarray) -> list[np.ndarray]:
        """Inputs seen by every layer, plus the final output, for a batch.

        Returns a list of ``len(layers) + 1`` arrays; entry ``i`` is the
        input to layer ``i`` and the last entry is the network output.
        """
        batch, _ = as_batch(values)
        if batch.shape[1] != self.input_size:
            raise ShapeError(
                f"expected inputs of size {self.input_size}, got {batch.shape[1]}"
            )
        inputs = [batch]
        current = batch
        for layer in self.layers:
            current = layer.forward(current)
            inputs.append(current)
        return inputs

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Argmax class predictions for a batch of inputs."""
        outputs = self.compute(values)
        outputs = np.atleast_2d(outputs)
        return outputs.argmax(axis=1)

    def accuracy(self, values: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on ``(values, labels)``."""
        labels = np.asarray(labels, dtype=int)
        if labels.size == 0:
            raise ShapeError("cannot compute accuracy on an empty set")
        return float(np.mean(self.predict(values) == labels))

    def activation_pattern(self, value: np.ndarray) -> list[np.ndarray]:
        """The sign pattern of every piecewise-linear activation layer.

        Returns one boolean array per activation layer recording, for
        element-wise activations, which units lie strictly in the "upper"
        piece (e.g. which ReLUs are on).  Used for analysis and tests; the
        repair algorithms do not need it directly.
        """
        inputs = self.layer_inputs(np.asarray(value, dtype=np.float64))
        pattern = []
        for index, layer in enumerate(self.layers):
            if layer.kind is LayerKind.ACTIVATION and layer.is_piecewise_linear:
                pattern.append(inputs[index][0] > 0.0)
        return pattern

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def get_all_parameters(self) -> dict[int, np.ndarray]:
        """Flat parameter vectors keyed by parameterized layer index."""
        return {
            index: self.layers[index].get_parameters()
            for index in self.parameterized_layer_indices()
        }

    def set_all_parameters(self, parameters: dict[int, np.ndarray]) -> None:
        """Overwrite parameters from a mapping produced by ``get_all_parameters``."""
        for index, flat in parameters.items():
            self.layers[index].set_parameters(flat)

    def copy(self) -> "Network":
        """New layer objects sharing this network's arrays (see :meth:`Layer.copy`)."""
        return Network([layer.copy() for layer in self.layers])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_parameters(self, path: str | Path) -> None:
        """Save all layer parameters to an ``.npz`` file."""
        arrays = {
            f"layer_{index}": flat for index, flat in self.get_all_parameters().items()
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **arrays)

    def load_parameters(self, path: str | Path) -> None:
        """Load parameters saved by :meth:`save_parameters` into this network."""
        with np.load(Path(path)) as data:
            for key in data.files:
                index = int(key.split("_", 1)[1])
                self.layers[index].set_parameters(np.array(data[key]))

    def __repr__(self) -> str:
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Network([{inner}])"
