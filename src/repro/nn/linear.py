"""Fully-connected (dense) layers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import LayerError, ShapeError
from repro.nn.layer import Layer, LayerKind
from repro.utils.validation import check_matrix, check_vector


class FullyConnectedLayer(Layer):
    """An affine layer ``z = W x + b``.

    Parameters are flattened as the weight matrix in row-major order followed
    by the bias vector, i.e. ``[W[0,0], W[0,1], ..., W[out-1,in-1], b[0], ...,
    b[out-1]]``.  This ordering is relied upon by
    :meth:`batch_parameter_jacobian` and by the repair algorithms when they
    add the LP solution back into the layer.
    """

    kind = LayerKind.PARAMETERIZED

    def __init__(self, weights, biases=None) -> None:
        self.weights = check_matrix(weights, "weights")
        out_size = self.weights.shape[0]
        if biases is None:
            self.biases = np.zeros(out_size)
        else:
            self.biases = check_vector(biases, "biases", size=out_size)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_shape(
        cls,
        input_size: int,
        output_size: int,
        rng: np.random.Generator,
        scale: float | None = None,
    ) -> "FullyConnectedLayer":
        """He-style random initialization for a layer of the given shape."""
        if scale is None:
            scale = float(np.sqrt(2.0 / max(1, input_size)))
        weights = rng.normal(0.0, scale, size=(output_size, input_size))
        return cls(weights, np.zeros(output_size))

    # ------------------------------------------------------------------
    # Shape info
    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        return self.weights.shape[1]

    @property
    def output_size(self) -> int:
        return self.weights.shape[0]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.input_size:
            raise ShapeError(
                f"expected input of size {self.input_size}, got {values.shape[-1]}"
            )
        return values @ self.weights.T + self.biases

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64) @ self.weights

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.weights.size + self.biases.size

    def get_parameters(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.biases])

    def set_parameters(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != self.num_parameters:
            raise LayerError(
                f"expected {self.num_parameters} parameters, got {flat.size}"
            )
        split = self.weights.size
        # Assignment freezes: views of a writable ``flat`` are copied.
        self.weights = flat[:split].reshape(self.weights.shape)
        self.biases = flat[split:]

    def batch_parameter_jacobian(
        self, downstream: np.ndarray, forward_inputs: np.ndarray
    ) -> np.ndarray:
        """See :meth:`Layer.batch_parameter_jacobian`.

        With ``z = W u + b`` and downstream linear map ``A`` we have
        ``∂(A z)/∂W[k, l] = A[:, k] * u[l]`` and ``∂(A z)/∂b[k] = A[:, k]``.
        One einsum builds the weight blocks of all points at once; the bias
        blocks are the downstream maps themselves.
        """
        downstream = np.asarray(downstream, dtype=np.float64)
        forward_inputs = np.atleast_2d(np.asarray(forward_inputs, dtype=np.float64))
        if downstream.shape[2] != self.output_size:
            raise ShapeError(
                f"downstream maps have {downstream.shape[2]} columns, expected {self.output_size}"
            )
        if forward_inputs.shape[1] != self.input_size:
            raise ShapeError(
                f"forward inputs have size {forward_inputs.shape[1]}, expected {self.input_size}"
            )
        k, m, _ = downstream.shape
        weight_block = np.einsum("kmo,ki->kmoi", downstream, forward_inputs).reshape(k, m, -1)
        return np.concatenate([weight_block, downstream], axis=2)

    def backward_parameters(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        forward_input = np.atleast_2d(np.asarray(forward_input, dtype=np.float64))
        grad_weights = grad_output.T @ forward_input
        grad_biases = grad_output.sum(axis=0)
        return np.concatenate([grad_weights.ravel(), grad_biases])
