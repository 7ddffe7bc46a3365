"""Element-wise activation layers.

Each activation layer knows how to:

* evaluate itself (``forward``),
* apply its transposed input Jacobian at a point (``backward_input``),
* apply the affine map ``Linearize[σ, z₀]`` of the value channel of a
  Decoupled DNN row by row (``decoupled_forward``; Definitions 4.2 and 4.3
  of the paper), and
* apply the transpose of its linear part to a stack of downstream maps
  (``batch_linearize_backward``).

Piecewise-linear activations additionally expose their breakpoints so the
SyReNN substrate can locate linear-region boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layer import Layer, LayerKind, free_of_nan_and_negative_zero


class _ElementwiseActivation(Layer):
    """Shared plumbing for element-wise activation layers of a fixed size."""

    kind = LayerKind.ACTIVATION

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("activation size must be positive")
        self._size = int(size)

    @property
    def input_size(self) -> int:
        return self._size

    @property
    def output_size(self) -> int:
        return self._size

    # Subclasses implement value/derivative on raw arrays.
    def _value(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self._value(np.asarray(values, dtype=np.float64))

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64) * self._derivative(
            np.asarray(forward_input, dtype=np.float64)
        )

    def decoupled_forward(
        self, activation_preactivation: np.ndarray, value_preactivation: np.ndarray
    ) -> np.ndarray:
        z0 = np.asarray(activation_preactivation, dtype=np.float64)
        z_value = np.asarray(value_preactivation, dtype=np.float64)
        slope = self._derivative(z0)
        intercept = self._value(z0) - slope * z0
        return slope * z_value + intercept

    def batch_linearize_backward(
        self, grad_output: np.ndarray, preactivations: np.ndarray
    ) -> np.ndarray:
        """See :meth:`Layer.batch_linearize_backward`.

        The transposed linearization of an element-wise activation is a
        diagonal scaling by the per-point slopes, so the whole stack reduces
        to one broadcast multiply.
        """
        slopes = self._derivative(np.atleast_2d(np.asarray(preactivations, dtype=np.float64)))
        return np.asarray(grad_output, dtype=np.float64) * slopes[:, None, :]


class ReLULayer(_ElementwiseActivation):
    """``ReLU(z) = max(z, 0)``.  Piecewise linear with a breakpoint at 0.

    At exactly 0 the function is non-differentiable; following Appendix C of
    the paper we consistently pick the zero linearization there.
    """

    is_piecewise_linear = True

    def _value(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(np.float64)

    def decoupled_forward(
        self, activation_preactivation: np.ndarray, value_preactivation: np.ndarray
    ) -> np.ndarray:
        # The generic slope/intercept path builds several temporaries; for
        # ReLU the linearization is just "pass through where the activation
        # channel is positive", which matters on the batched hot path.
        return np.where(
            np.asarray(activation_preactivation, dtype=np.float64) > 0.0,
            np.asarray(value_preactivation, dtype=np.float64),
            0.0,
        )

    def forward_matches_decoupled(self, preactivation: np.ndarray) -> bool:
        # max(z, 0) and "z where z > 0, else 0" differ only at -0.0 and NaN.
        return free_of_nan_and_negative_zero(preactivation)

    def piecewise_breakpoints(self) -> tuple[float, ...]:
        return (0.0,)


class LeakyReLULayer(_ElementwiseActivation):
    """``LeakyReLU(z) = z`` for ``z > 0`` and ``αz`` otherwise."""

    is_piecewise_linear = True

    def __init__(self, size: int, negative_slope: float = 0.01) -> None:
        super().__init__(size)
        self.negative_slope = float(negative_slope)

    def _value(self, z: np.ndarray) -> np.ndarray:
        return np.where(z > 0.0, z, self.negative_slope * z)

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        return np.where(z > 0.0, 1.0, self.negative_slope)

    def piecewise_breakpoints(self) -> tuple[float, ...]:
        return (0.0,)


class HardTanhLayer(_ElementwiseActivation):
    """``HardTanh(z) = clip(z, -1, 1)``.  Piecewise linear with breaks ±1."""

    is_piecewise_linear = True

    def _value(self, z: np.ndarray) -> np.ndarray:
        return np.clip(z, -1.0, 1.0)

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        return ((z > -1.0) & (z < 1.0)).astype(np.float64)

    def piecewise_breakpoints(self) -> tuple[float, ...]:
        return (-1.0, 1.0)


class TanhLayer(_ElementwiseActivation):
    """Hyperbolic tangent.  Smooth (not piecewise linear)."""

    is_piecewise_linear = False

    def _value(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        return 1.0 - np.tanh(z) ** 2


class SigmoidLayer(_ElementwiseActivation):
    """Logistic sigmoid.  Smooth (not piecewise linear)."""

    is_piecewise_linear = False

    def _value(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        value = self._value(z)
        return value * (1.0 - value)
