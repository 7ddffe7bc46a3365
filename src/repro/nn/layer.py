"""Layer base classes.

Three kinds of layers exist (see :class:`LayerKind`):

``PARAMETERIZED``
    Affine in their input *and* in their parameters (fully-connected,
    convolution).  These are the layers the repair algorithms modify.
``ACTIVATION``
    Possibly non-linear functions of their input with no trainable
    parameters (ReLU, Tanh, max-pooling, ...).  The Decoupled DNN replaces
    them in the value channel by their linearization around the activation
    channel's pre-activation (Definition 4.2 of the paper), evaluated by
    :meth:`Layer.decoupled_forward` and transposed by
    :meth:`Layer.batch_linearize_backward`.
``STATIC``
    Fixed affine maps (flatten, average-pooling, input normalization); they
    behave identically in both channels.
"""

from __future__ import annotations

import abc
import copy
import enum
import hashlib

import numpy as np

from repro.exceptions import LayerError
from repro.utils.validation import frozen


class LayerKind(enum.Enum):
    """Taxonomy used by the Decoupled DNN construction."""

    PARAMETERIZED = "parameterized"
    ACTIVATION = "activation"
    STATIC = "static"


class Layer(abc.ABC):
    """Base class for all layers.

    Every layer maps ``(batch, input_size) → (batch, output_size)``.
    Subclasses implement :meth:`forward` and :meth:`backward_input`.
    The Decoupled DNN's Jacobian (Theorem 4.5) is computed for a whole batch
    of points at once through three kind-specific methods:
    parameterized layers implement the parameter API
    (:meth:`get_parameters`, :meth:`set_parameters`,
    :meth:`batch_parameter_jacobian`, :meth:`backward_parameters`);
    parameterized and static layers push downstream maps back through
    :meth:`batch_backward_input`; activation layers implement
    :meth:`decoupled_forward` and :meth:`batch_linearize_backward`.

    Every ndarray assigned to an attribute is frozen
    (:func:`~repro.utils.validation.frozen`), so layers never change in
    place and can share arrays; any assignment drops the :attr:`digest`.
    """

    #: Layer kind; overridden by subclasses.
    kind: LayerKind = LayerKind.STATIC

    def __setattr__(self, name: str, value) -> None:
        self.__dict__.pop("_digest", None)
        object.__setattr__(self, name, frozen(value) if isinstance(value, np.ndarray) else value)

    def __setstate__(self, state: dict) -> None:
        # Unpickled and copied layers freeze their arrays too; the memo
        # survives because any other assignment drops it, so it comes last.
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def digest(self) -> bytes:
        """SHA-256 of the class, sizes, scalar configuration and array bytes (memoized)."""
        if "_digest" not in self.__dict__:
            hasher = hashlib.sha256(
                f"{type(self).__name__}:{self.input_size}:{self.output_size}".encode()
            )
            for attr, value in sorted(vars(self).items()):
                if isinstance(value, (bool, int, float, str, tuple)):
                    hasher.update(f":{attr}={value}".encode())
                elif isinstance(value, np.ndarray):
                    hasher.update(f":{attr}{value.shape}:".encode())
                    hasher.update(np.ascontiguousarray(value).tobytes())
            self._digest = hasher.digest()
        return self._digest

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

    def backward_parameters(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss with respect to the flat parameters.

        ``grad_output`` is ``(batch, output_size)``; the result is summed
        over the batch and has shape ``(num_parameters,)``.
        """
        raise LayerError(f"{type(self).__name__} has no parameters")

    def batch_parameter_jacobian(
        self, downstream: np.ndarray, forward_inputs: np.ndarray
    ) -> np.ndarray:
        """Jacobians of ``downstream[i] @ layer(input)`` with respect to parameters.

        ``downstream`` has shape ``(k, m, output_size)`` — for every point
        the linear map from this layer's output to the network output (in
        the value channel) — and ``forward_inputs`` has shape
        ``(k, input_size)``, the input each point presents to this layer.
        Returns ``(k, m, num_parameters)`` with parameters flattened in the
        order of :meth:`get_parameters`.
        """
        raise LayerError(f"{type(self).__name__} does not support parameter Jacobians")

    # ------------------------------------------------------------------
    # Batched downstream maps
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

        For every point ``i``, applies the transpose of
        ``Linearize[σ, preactivations[i]]`` (the linear part of the map
        :meth:`decoupled_forward` applies to row ``i``) to ``grad_output[i]``
        (shape ``(m, output_size)``); the result has shape
        ``(k, m, input_size)``.  Activation layers override this with
        vectorized versions; other layer kinds never call it.
        """
        raise LayerError(f"{type(self).__name__} is not an activation layer")

    # ------------------------------------------------------------------
    # Activation API (activation layers only)
    # ------------------------------------------------------------------
    @property
    def is_piecewise_linear(self) -> bool:
        """Whether this layer is a piecewise-linear function of its input."""
        return True

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
        """A new layer object sharing this one's arrays (independent under :meth:`set_parameters`)."""
        return copy.copy(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(in={self.input_size}, out={self.output_size})"


_NEGATIVE_ZERO_BITS = np.float64(-0.0).view(np.int64)


def free_of_nan_and_negative_zero(values: np.ndarray) -> bool:
    """Whether ``values`` holds no NaN and no ``-0.0`` (conservatively).

    On such inputs taking a maximum and selecting the maximal entry agree
    bit for bit (ReLU's ``max(z, 0)`` against its decoupled pass-through,
    a pooling window's max against its argmax entry).  Infinities of both
    signs make the sum NaN and the answer ``False``, which is merely
    conservative.
    """
    values = np.asarray(values, dtype=np.float64)
    # -0.0 is the one float64 whose bits are the sign bit alone, so one
    # integer comparison finds it without gathering the zeros first.
    return not np.isnan(values.sum()) and not (values.view(np.int64) == _NEGATIVE_ZERO_BITS).any()


def as_batch(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Return ``values`` as a 2-D batch and whether it was originally 1-D."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 1:
        return array[None, :], True
    if array.ndim == 2:
        return array, False
    raise LayerError(f"expected a vector or batch of vectors, got shape {array.shape}")
