"""Decoupled Deep Neural Networks (§4 of the paper).

A Decoupled DNN (DDNN) keeps two copies of the network's parameters:

* the **activation channel**, which is evaluated exactly like the original
  network and determines which linear piece of every activation function is
  used, and
* the **value channel**, which computes the output, but with every activation
  replaced by its linearization around the corresponding activation-channel
  pre-activation (Definition 4.3).

Constructing a DDNN with both channels equal to a network ``N`` yields a
function identical to ``N`` (Theorem 4.4).  Modifying the parameters of a
single value-channel layer changes the output *linearly* (Theorem 4.5) and
never moves the linear-region boundaries (Theorem 4.6) — the two facts the
repair algorithms exploit.

Theorem 4.5 also means the inputs of the repaired layer never change during
a single-layer repair: a :class:`~repro.core.prefix_cache.PrefixCache` bound
to a network (its :attr:`DecoupledNetwork.prefix_cache`) lets
:meth:`DecoupledNetwork.compute` and
:meth:`DecoupledNetwork.batch_channel_traces` start at that layer from
features computed once per batch, with byte-identical results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ShapeError, UnsupportedLayerError
from repro.nn.layer import LayerKind, as_batch
from repro.nn.network import Network

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.prefix_cache import PrefixCache

#: Rows per forward batch for every caller that evaluates many points at once
#: (verification sweeps, the pool's satisfaction check, Jacobian encoding).
#: It bounds the transient im2col memory of convolutional networks, and
#: sharing one value makes those callers present identical batches, which is
#: what the frozen-prefix cache keys on.
POINT_BATCH = 1024


class DecoupledNetwork:
    """A Decoupled DNN built from activation-channel and value-channel layers."""

    def __init__(self, activation_network: Network, value_network: Network) -> None:
        if len(activation_network.layers) != len(value_network.layers):
            raise ShapeError("activation and value channels must have the same depth")
        for act_layer, val_layer in zip(activation_network.layers, value_network.layers):
            if type(act_layer) is not type(val_layer):
                raise ShapeError(
                    "activation and value channels must have the same layer types, "
                    f"got {type(act_layer).__name__} vs {type(val_layer).__name__}"
                )
            if (
                act_layer.input_size != val_layer.input_size
                or act_layer.output_size != val_layer.output_size
            ):
                raise ShapeError("activation and value channel layer sizes must match")
        self.activation = activation_network
        self.value = value_network
        #: The frozen-prefix cache batched evaluations go through, if any
        #: (set by :meth:`PrefixCache.bind`; never copied or pickled).
        self.prefix_cache: PrefixCache | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["prefix_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: Network) -> "DecoupledNetwork":
        """The trivially equivalent DDNN of Theorem 4.4 (both channels = N)."""
        return cls(network.copy(), network.copy())

    def copy(self) -> "DecoupledNetwork":
        """A deep copy of both channels."""
        return DecoupledNetwork(self.activation.copy(), self.value.copy())

    # ------------------------------------------------------------------
    # Shape info
    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        return self.activation.input_size

    @property
    def output_size(self) -> int:
        return self.activation.output_size

    @property
    def num_layers(self) -> int:
        return len(self.activation.layers)

    def repairable_layer_indices(self) -> list[int]:
        """Indices of value-channel layers that can be repaired."""
        return self.value.parameterized_layer_indices()

    def is_piecewise_linear(self) -> bool:
        """Whether the activation channel uses only PWL activations."""
        return self.activation.is_piecewise_linear()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute(self, values: np.ndarray, activation_values: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the DDNN.

        ``values`` feeds the value channel; ``activation_values`` feeds the
        activation channel and defaults to ``values`` (the standard DDNN
        semantics).  Supplying a different activation point is how the
        polytope repair algorithm pins the activation pattern of a linear
        region while evaluating at one of its (boundary) vertices
        (Appendix B of the paper).
        """
        value_batch, was_vector = as_batch(values)
        if activation_values is None:
            activation_batch = value_batch
        else:
            activation_batch, _ = as_batch(activation_values)
            if activation_batch.shape != value_batch.shape:
                raise ShapeError(
                    "activation_values must have the same shape as values "
                    f"({activation_batch.shape} vs {value_batch.shape})"
                )
        if value_batch.shape[1] != self.input_size:
            raise ShapeError(
                f"expected inputs of size {self.input_size}, got {value_batch.shape[1]}"
            )

        start, current_activation, current_value = self._layer_inputs(
            value_batch, None if activation_values is None else activation_batch
        )
        for act_layer, val_layer in zip(self.activation.layers[start:], self.value.layers[start:]):
            if act_layer.kind is LayerKind.ACTIVATION:
                next_activation = act_layer.forward(current_activation)
                next_value = act_layer.decoupled_forward(current_activation, current_value)
            else:
                next_activation = act_layer.forward(current_activation)
                next_value = val_layer.forward(current_value)
            current_activation = next_activation
            current_value = next_value
        return current_value[0] if was_vector else current_value

    __call__ = compute

    def _layer_inputs(
        self,
        value_batch: np.ndarray,
        activation_batch: np.ndarray | None,
        needed_from: int | None = None,
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """``(start, activation, value)``: where evaluation of a batch begins.

        Without a usable prefix cache that is layer 0 and the batches
        themselves; with one, the repaired layer and its cached inputs.
        """
        cache = self.prefix_cache
        if cache is not None and (needed_from is None or cache.layer_index <= needed_from):
            inputs = cache.layer_inputs(self, value_batch, activation_batch)
            if inputs is not None:
                return (cache.layer_index, *inputs)
        return 0, (value_batch if activation_batch is None else activation_batch), value_batch

    def predict(self, values: np.ndarray, activation_values: np.ndarray | None = None) -> np.ndarray:
        """Argmax class predictions of the DDNN."""
        outputs = np.atleast_2d(self.compute(values, activation_values))
        return outputs.argmax(axis=1)

    def accuracy(self, values: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy of the DDNN on ``(values, labels)``."""
        labels = np.asarray(labels, dtype=int)
        return float(np.mean(self.predict(values) == labels))

    # ------------------------------------------------------------------
    # Channel traces (single input vector)
    # ------------------------------------------------------------------
    def channel_traces(
        self, value_point: np.ndarray, activation_point: np.ndarray | None = None
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer inputs of both channels for a single input vector.

        Returns ``(activation_inputs, value_inputs)`` where each list has
        ``num_layers + 1`` entries; entry ``i`` is the input to layer ``i``
        and the final entry is the channel output.
        """
        value_point = np.asarray(value_point, dtype=np.float64).ravel()
        activation_point = (
            value_point
            if activation_point is None
            else np.asarray(activation_point, dtype=np.float64).ravel()
        )
        activation_inputs = [activation_point[None, :]]
        value_inputs = [value_point[None, :]]
        current_activation = activation_inputs[0]
        current_value = value_inputs[0]
        for act_layer, val_layer in zip(self.activation.layers, self.value.layers):
            if act_layer.kind is LayerKind.ACTIVATION:
                next_value = act_layer.decoupled_forward(current_activation, current_value)
                next_activation = act_layer.forward(current_activation)
            else:
                next_value = val_layer.forward(current_value)
                next_activation = act_layer.forward(current_activation)
            current_activation = next_activation
            current_value = next_value
            activation_inputs.append(current_activation)
            value_inputs.append(current_value)
        return activation_inputs, value_inputs

    # ------------------------------------------------------------------
    # Channel traces (batch of input vectors)
    # ------------------------------------------------------------------
    def batch_channel_traces(
        self,
        value_points: np.ndarray,
        activation_points: np.ndarray | None = None,
        *,
        needed_from: int | None = None,
    ) -> tuple[list[np.ndarray | None], list[np.ndarray | None]]:
        """Per-layer inputs of both channels for a batch of input vectors.

        The batched analogue of :meth:`channel_traces`: ``value_points`` is a
        ``(k, n)`` array (``activation_points`` likewise, defaulting to
        ``value_points``) and each returned list entry has shape
        ``(k, layer_input_size)``.  All ``k`` points flow through the layer
        stack together, so the cost of the Python layer loop is paid once per
        layer instead of once per point.

        With a :attr:`prefix_cache` serving the batch, evaluation starts at
        the cache's layer and the entries below it are ``None`` (the
        backward pass of :meth:`batch_parameter_jacobian` never reads them).
        ``needed_from`` is the lowest layer whose entry the caller reads; the
        cache is skipped when its layer lies above it.
        """
        value_batch = np.atleast_2d(np.asarray(value_points, dtype=np.float64))
        if activation_points is None:
            activation_batch = value_batch
        else:
            activation_batch = np.atleast_2d(np.asarray(activation_points, dtype=np.float64))
            if activation_batch.shape != value_batch.shape:
                raise ShapeError(
                    "activation_points must have the same shape as value_points "
                    f"({activation_batch.shape} vs {value_batch.shape})"
                )
        if value_batch.shape[1] != self.input_size:
            raise ShapeError(
                f"expected inputs of size {self.input_size}, got {value_batch.shape[1]}"
            )
        start, current_activation, current_value = self._layer_inputs(
            value_batch, None if activation_points is None else activation_batch, needed_from
        )
        activation_inputs = [None] * start + [current_activation]
        value_inputs = [None] * start + [current_value]
        for act_layer, val_layer in zip(self.activation.layers[start:], self.value.layers[start:]):
            if act_layer.kind is LayerKind.ACTIVATION:
                next_value = act_layer.decoupled_forward(current_activation, current_value)
                next_activation = act_layer.forward(current_activation)
            else:
                next_value = val_layer.forward(current_value)
                next_activation = act_layer.forward(current_activation)
            current_activation = next_activation
            current_value = next_value
            activation_inputs.append(current_activation)
            value_inputs.append(current_value)
        return activation_inputs, value_inputs

    # ------------------------------------------------------------------
    # Parameter Jacobian (Theorem 4.5)
    # ------------------------------------------------------------------
    def parameter_jacobian(
        self,
        layer_index: int,
        value_point: np.ndarray,
        activation_point: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Output and Jacobian of the DDNN w.r.t. one value layer's parameters.

        Returns ``(output, jacobian)`` where ``output = N(value_point)`` and
        ``jacobian`` has shape ``(output_size, num_parameters_of_layer)``.
        Because the DDNN output is exactly affine in the chosen value-channel
        layer's parameters (Theorem 4.5), for any parameter delta ``Δ``::

            N_Δ(value_point) = output + jacobian @ Δ
        """
        layer_index = self._check_repairable(layer_index)
        activation_inputs, value_inputs = self.channel_traces(value_point, activation_point)
        output = value_inputs[-1][0]

        # Downstream linear map A from the repaired layer's output to the
        # network output, computed by pushing the identity matrix backwards
        # through the value channel (with activations linearized around the
        # activation channel's pre-activations).
        downstream = np.eye(self.output_size)
        for index in range(self.num_layers - 1, layer_index, -1):
            act_layer = self.activation.layers[index]
            val_layer = self.value.layers[index]
            if act_layer.kind is LayerKind.ACTIVATION:
                linearization = act_layer.linearize(activation_inputs[index][0])
                downstream = linearization.backward(downstream)
            else:
                downstream = val_layer.backward_input(downstream, value_inputs[index])

        layer = self.value.layers[layer_index]
        jacobian = layer.parameter_jacobian(downstream, value_inputs[layer_index][0])
        return output, jacobian

    def batch_parameter_jacobian(
        self,
        layer_index: int,
        points: np.ndarray,
        activation_points: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outputs and parameter Jacobians of the DDNN at many points at once.

        The vectorized analogue of :meth:`parameter_jacobian`: ``points`` is
        a ``(k, n)`` array of value-channel inputs (``activation_points``
        likewise, defaulting to ``points``), and the return value is
        ``(outputs, jacobians)`` with shapes ``(k, output_size)`` and
        ``(k, output_size, num_parameters_of_layer)``.

        All ``k`` points share one forward pass (:meth:`batch_channel_traces`)
        and one backward pass that pushes a stack of identity matrices
        through the value channel, using each point's own linearizations from
        the activation channel.  The result is numerically identical (up to
        floating-point association) to calling :meth:`parameter_jacobian`
        once per point, but the per-point Python overhead is eliminated —
        this is the hot path of batched repair.
        """
        layer_index = self._check_repairable(layer_index)
        activation_inputs, value_inputs = self.batch_channel_traces(
            points, activation_points, needed_from=layer_index
        )
        outputs = value_inputs[-1]
        num_points = outputs.shape[0]

        # Per-point downstream linear maps from the repaired layer's output
        # to the network output: a (k, m, ·) stack seeded with identities.
        downstream = np.repeat(np.eye(self.output_size)[None, :, :], num_points, axis=0)
        for index in range(self.num_layers - 1, layer_index, -1):
            act_layer = self.activation.layers[index]
            val_layer = self.value.layers[index]
            if act_layer.kind is LayerKind.ACTIVATION:
                downstream = act_layer.batch_linearize_backward(
                    downstream, activation_inputs[index]
                )
            else:
                downstream = val_layer.batch_backward_input(downstream, value_inputs[index])

        layer = self.value.layers[layer_index]
        jacobians = layer.batch_parameter_jacobian(downstream, value_inputs[layer_index])
        return outputs, jacobians

    def _check_repairable(self, layer_index: int) -> int:
        if layer_index < 0:
            layer_index += self.num_layers
        if not 0 <= layer_index < self.num_layers:
            raise UnsupportedLayerError(f"layer index {layer_index} out of range")
        if self.value.layers[layer_index].kind is not LayerKind.PARAMETERIZED:
            raise UnsupportedLayerError(
                f"layer {layer_index} ({type(self.value.layers[layer_index]).__name__}) "
                "has no repairable parameters"
            )
        return layer_index

    # ------------------------------------------------------------------
    # Applying a repair
    # ------------------------------------------------------------------
    def apply_parameter_delta(self, layer_index: int, delta: np.ndarray) -> None:
        """Add ``delta`` to the flat parameters of one value-channel layer."""
        layer_index = self._check_repairable(layer_index)
        layer = self.value.layers[layer_index]
        delta = np.asarray(delta, dtype=np.float64).ravel()
        if delta.size != layer.num_parameters:
            raise ShapeError(
                f"delta has {delta.size} entries, layer {layer_index} has "
                f"{layer.num_parameters} parameters"
            )
        layer.set_parameters(layer.get_parameters() + delta)

    def __repr__(self) -> str:
        return f"DecoupledNetwork(layers={self.num_layers}, inputs={self.input_size}, outputs={self.output_size})"
