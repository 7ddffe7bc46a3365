"""Layer base classes and the linearization abstraction.

Three kinds of layers exist (see :class:`LayerKind`):

``PARAMETERIZED``
    Affine in their input *and* in their parameters (fully-connected,
    convolution).  These are the layers the repair algorithms modify.
``ACTIVATION``
    Possibly non-linear functions of their input with no trainable
    parameters (ReLU, Tanh, max-pooling, ...).  The Decoupled DNN replaces
    them in the value channel by their linearization around the activation
    channel's pre-activation (Definition 4.2 of the paper); the
    :class:`Linearization` objects returned by :meth:`Layer.linearize`
    implement that replacement.
``STATIC``
    Fixed affine maps (flatten, average-pooling, input normalization); they
    behave identically in both channels.
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from repro.exceptions import LayerError


class LayerKind(enum.Enum):
    """Taxonomy used by the Decoupled DNN construction."""

    PARAMETERIZED = "parameterized"
    ACTIVATION = "activation"
    STATIC = "static"


class Linearization(abc.ABC):
    """The affine map ``Linearize[σ, z₀]`` around a pre-activation ``z₀``."""

    @abc.abstractmethod
    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply the linearized activation to a ``(batch, n)`` array."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Apply the transpose of the linear part to a ``(batch, n)`` array."""


class ElementwiseLinearization(Linearization):
    """``out = slope * z + intercept`` applied element-wise."""

    def __init__(self, slope: np.ndarray, intercept: np.ndarray) -> None:
        self.slope = np.asarray(slope, dtype=np.float64)
        self.intercept = np.asarray(intercept, dtype=np.float64)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values * self.slope + self.intercept

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self.slope


class SelectionLinearization(Linearization):
    """``out[j] = z[indices[j]]`` — the linearization of max-pooling.

    ``indices`` maps each output coordinate to the input coordinate selected
    by the pooling window around the activation channel's pre-activation.
    """

    def __init__(self, indices: np.ndarray, input_size: int) -> None:
        self.indices = np.asarray(indices, dtype=int)
        self.input_size = int(input_size)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values[:, self.indices]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_input = np.zeros((grad_output.shape[0], self.input_size))
        np.add.at(grad_input, (slice(None), self.indices), grad_output)
        return grad_input


class Layer(abc.ABC):
    """Base class for all layers.

    Every layer maps ``(batch, input_size) → (batch, output_size)``.
    Subclasses implement :meth:`forward` and :meth:`backward_input`;
    parameterized layers additionally implement the parameter API
    (:meth:`get_parameters`, :meth:`set_parameters`, :meth:`parameter_jacobian`,
    :meth:`backward_parameters`); activation layers implement
    :meth:`linearize`.
    """

    #: Layer kind; overridden by subclasses.
    kind: LayerKind = LayerKind.STATIC

    @property
    @abc.abstractmethod
    def input_size(self) -> int:
        """Number of (flat) input features."""

    @property
    @abc.abstractmethod
    def output_size(self) -> int:
        """Number of (flat) output features."""

    @abc.abstractmethod
    def forward(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the layer on a ``(batch, input_size)`` array."""

    @abc.abstractmethod
    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        """Apply the transposed input Jacobian at ``forward_input``.

        ``grad_output`` has shape ``(batch, output_size)``; the result has
        shape ``(batch, input_size)``.  For layers that are affine in their
        input the Jacobian is independent of ``forward_input``.
        """

    # ------------------------------------------------------------------
    # Parameter API (parameterized layers only)
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters (0 for non-parameterized layers)."""
        return 0

    def get_parameters(self) -> np.ndarray:
        """Flattened copy of the layer's parameters."""
        if self.kind is not LayerKind.PARAMETERIZED:
            return np.zeros(0)
        raise NotImplementedError

    def set_parameters(self, flat: np.ndarray) -> None:
        """Overwrite the layer's parameters from a flat vector."""
        raise LayerError(f"{type(self).__name__} has no parameters to set")

    def parameter_jacobian(self, downstream: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        """Jacobian of ``downstream @ layer(input)`` with respect to parameters.

        ``downstream`` is an ``(m, output_size)`` matrix representing the
        linear map from this layer's output to the network output (in the
        value channel); ``forward_input`` is the single input vector
        ``(input_size,)`` seen by this layer.  Returns ``(m, num_parameters)``
        with parameters flattened in the order of :meth:`get_parameters`.
        """
        raise LayerError(f"{type(self).__name__} does not support parameter Jacobians")

    def backward_parameters(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss with respect to the flat parameters.

        ``grad_output`` is ``(batch, output_size)``; the result is summed
        over the batch and has shape ``(num_parameters,)``.
        """
        raise LayerError(f"{type(self).__name__} has no parameters")

    def batch_parameter_jacobian(
        self, downstream: np.ndarray, forward_inputs: np.ndarray
    ) -> np.ndarray:
        """Multi-point version of :meth:`parameter_jacobian`.

        ``downstream`` has shape ``(k, m, output_size)`` — one downstream
        linear map per point — and ``forward_inputs`` has shape
        ``(k, input_size)``.  Returns ``(k, m, num_parameters)``.  The default
        implementation loops over the points; :class:`FullyConnectedLayer`
        and :class:`Conv2DLayer` override it with a single einsum so the
        batched repair engine never drops into a Python loop.
        """
        downstream = np.asarray(downstream, dtype=np.float64)
        forward_inputs = np.atleast_2d(np.asarray(forward_inputs, dtype=np.float64))
        return np.stack(
            [
                self.parameter_jacobian(downstream[index], forward_inputs[index])
                for index in range(downstream.shape[0])
            ]
        )

    # ------------------------------------------------------------------
    # Batched downstream maps (batched repair engine)
    # ------------------------------------------------------------------
    def batch_backward_input(self, grad_output: np.ndarray, forward_inputs: np.ndarray) -> np.ndarray:
        """Apply the transposed input Jacobian to a stack of matrices.

        ``grad_output`` has shape ``(k, m, output_size)``; the result has
        shape ``(k, m, input_size)``.  Only valid for layers that are affine
        in their input (``PARAMETERIZED`` and ``STATIC`` kinds), whose input
        Jacobian is independent of ``forward_inputs``; activation layers are
        handled through :meth:`batch_linearize_backward` instead.
        """
        grad_output = np.asarray(grad_output, dtype=np.float64)
        k, m, out = grad_output.shape
        flat = self.backward_input(grad_output.reshape(k * m, out), forward_inputs)
        return flat.reshape(k, m, self.input_size)

    def batch_linearize_backward(
        self, grad_output: np.ndarray, preactivations: np.ndarray
    ) -> np.ndarray:
        """Apply per-point transposed linearizations to a stack of matrices.

        For every point ``i``, applies ``Linearize[σ, preactivations[i]]``
        transposed to ``grad_output[i]`` (shape ``(m, output_size)``); the
        result has shape ``(k, m, input_size)``.  The default implementation
        builds one :class:`Linearization` per point; element-wise activations
        and max-pooling override it with fully vectorized versions.
        """
        grad_output = np.asarray(grad_output, dtype=np.float64)
        preactivations = np.atleast_2d(np.asarray(preactivations, dtype=np.float64))
        return np.stack(
            [
                self.linearize(preactivations[index]).backward(grad_output[index])
                for index in range(grad_output.shape[0])
            ]
        )

    # ------------------------------------------------------------------
    # Activation API (activation layers only)
    # ------------------------------------------------------------------
    @property
    def is_piecewise_linear(self) -> bool:
        """Whether this layer is a piecewise-linear function of its input."""
        return True

    def linearize(self, preactivation: np.ndarray) -> Linearization:
        """Linearization of the layer around ``preactivation`` (a vector)."""
        raise LayerError(f"{type(self).__name__} is not an activation layer")

    def piecewise_breakpoints(self) -> tuple[float, ...]:
        """Input thresholds where an element-wise PWL activation changes piece.

        Only meaningful for element-wise piecewise-linear activations; used
        by the SyReNN substrate to find linear-region boundaries.
        """
        raise LayerError(f"{type(self).__name__} has no element-wise breakpoints")

    def forward_matches_decoupled(self, preactivation: np.ndarray) -> bool:
        """Whether ``decoupled_forward(z, z)`` equals ``forward(z)`` bit for bit.

        Checked at ``z = preactivation`` (a batch).  Where it holds, a DDNN
        whose two channels receive the same bytes keeps them identical
        through this layer, which lets the frozen-prefix cache
        (:mod:`repro.core.prefix_cache`) evaluate the prefix once instead of
        once per channel.  ``False`` is always a safe answer; it is the
        default.
        """
        return False

    def decoupled_forward(
        self, activation_preactivation: np.ndarray, value_preactivation: np.ndarray
    ) -> np.ndarray:
        """Batched value-channel evaluation of an activation layer.

        Applies ``Linearize[σ, activation_preactivation[i]]`` to
        ``value_preactivation[i]`` for every batch row ``i`` (Definition 4.3
        of the paper).  Activation layers override this with a vectorized
        implementation; other layer kinds never call it.
        """
        raise LayerError(f"{type(self).__name__} does not support decoupled evaluation")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "Layer":
        """A deep copy of the layer (parameters included)."""
        import copy as _copy

        return _copy.deepcopy(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(in={self.input_size}, out={self.output_size})"


def free_of_nan_and_negative_zero(values: np.ndarray) -> bool:
    """Whether ``values`` holds no NaN and no ``-0.0`` (conservatively).

    On such inputs taking a maximum and selecting the maximal entry agree
    bit for bit (ReLU's ``max(z, 0)`` against its decoupled pass-through,
    a pooling window's max against its argmax entry).  Infinities of both
    signs make the sum NaN and the answer ``False``, which is merely
    conservative.
    """
    values = np.asarray(values, dtype=np.float64)
    return not np.isnan(values.sum()) and not np.signbit(values[values == 0.0]).any()


def as_batch(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Return ``values`` as a 2-D batch and whether it was originally 1-D."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 1:
        return array[None, :], True
    if array.ndim == 2:
        return array, False
    raise LayerError(f"expected a vector or batch of vectors, got shape {array.shape}")
