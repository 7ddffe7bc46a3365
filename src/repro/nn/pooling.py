"""Pooling layers.

``MaxPool2DLayer`` is a piecewise-linear *activation* layer: in a Decoupled
DNN its value-channel replacement is the selection map determined by the
activation channel's argmax (each window passes on the value-channel entry
at the position where the activation channel's window is maximal).
``AvgPool2DLayer`` is a fixed linear map and therefore a *static* layer.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.conv import window_indices
from repro.nn.layer import Layer, LayerKind, free_of_nan_and_negative_zero


class _Pool2DBase(Layer):
    """Shared geometry handling for 2-D pooling layers."""

    def __init__(
        self,
        channels: int,
        input_height: int,
        input_width: int,
        pool_size: int = 2,
        stride: int | None = None,
    ) -> None:
        self.channels = int(channels)
        self.input_height = int(input_height)
        self.input_width = int(input_width)
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        rows, cols, out_h, out_w = window_indices(
            self.input_height,
            self.input_width,
            self.pool_size,
            self.pool_size,
            self.stride,
            padding=0,
        )
        self.output_height = out_h
        self.output_width = out_w
        # Flat spatial index of every window element for every output position.
        self._window_flat = rows * self.input_width + cols  # (k*k, P)

    @property
    def input_size(self) -> int:
        return self.channels * self.input_height * self.input_width

    @property
    def output_size(self) -> int:
        return self.channels * self.output_height * self.output_width

    def _windows(self, values: np.ndarray) -> np.ndarray:
        """Gather pooling windows: ``(batch, channels, k*k, P)``."""
        batch = values.shape[0]
        maps = values.reshape(batch, self.channels, -1)
        return maps[:, :, self._window_flat]


class MaxPool2DLayer(_Pool2DBase):
    """Max pooling; a piecewise-linear activation layer."""

    kind = LayerKind.ACTIVATION
    is_piecewise_linear = True

    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self.input_size:
            raise ShapeError(f"expected input of size {self.input_size}, got {values.shape[1]}")
        windows = self._windows(values)
        return windows.max(axis=2).reshape(values.shape[0], -1)

    def _argmax_flat_indices_batch(self, batch: np.ndarray) -> np.ndarray:
        """Flat input index selected by each output coordinate, per batch row.

        Returns ``(batch, output_size)`` indices into the flat input.
        """
        windows = self._windows(batch)                              # (B, C, k*k, P)
        winners = windows.argmax(axis=2)                            # (B, C, P)
        spatial = np.take_along_axis(
            np.broadcast_to(self._window_flat, windows.shape), winners[:, :, None, :], axis=2
        )[:, :, 0, :]
        channel_offsets = (
            np.arange(self.channels)[None, :, None] * self.input_height * self.input_width
        )
        return (spatial + channel_offsets).reshape(batch.shape[0], -1)

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        forward_input = np.atleast_2d(np.asarray(forward_input, dtype=np.float64))
        selected = self._argmax_flat_indices_batch(forward_input)  # (B, output_size)
        grad_input = np.zeros_like(forward_input)
        np.add.at(grad_input, (np.arange(forward_input.shape[0])[:, None], selected), grad_output)
        return grad_input

    def batch_linearize_backward(
        self, grad_output: np.ndarray, preactivations: np.ndarray
    ) -> np.ndarray:
        """See :meth:`Layer.batch_linearize_backward`.

        The transposed selection map scatters each output column of every
        point's matrix onto the input coordinate its pooling window selected;
        a single ``np.add.at`` handles the whole stack.
        """
        grad_output = np.asarray(grad_output, dtype=np.float64)
        preactivations = np.atleast_2d(np.asarray(preactivations, dtype=np.float64))
        k, m, _ = grad_output.shape
        selected = self._argmax_flat_indices_batch(preactivations)  # (k, output_size)
        grad_input = np.zeros((k, self.input_size, m))
        np.add.at(
            grad_input,
            (np.arange(k)[:, None], selected),
            np.transpose(grad_output, (0, 2, 1)),
        )
        return np.transpose(grad_input, (0, 2, 1))

    def decoupled_forward(
        self, activation_preactivation: np.ndarray, value_preactivation: np.ndarray
    ) -> np.ndarray:
        activation_batch = np.atleast_2d(np.asarray(activation_preactivation, dtype=np.float64))
        value_batch = np.atleast_2d(np.asarray(value_preactivation, dtype=np.float64))
        activation_windows = self._windows(activation_batch)       # (B, C, k*k, P)
        value_windows = self._windows(value_batch)
        winners = activation_windows.argmax(axis=2)                 # (B, C, P)
        selected = np.take_along_axis(value_windows, winners[:, :, None, :], axis=2)[:, :, 0, :]
        return selected.reshape(value_batch.shape[0], -1)

    def forward_matches_decoupled(self, preactivation: np.ndarray) -> bool:
        # A window's max and its first argmax entry differ only when the
        # window mixes -0.0 with 0.0 or holds a NaN.
        return free_of_nan_and_negative_zero(preactivation)


class AvgPool2DLayer(_Pool2DBase):
    """Average pooling; a fixed linear (static) layer."""

    kind = LayerKind.STATIC

    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self.input_size:
            raise ShapeError(f"expected input of size {self.input_size}, got {values.shape[1]}")
        windows = self._windows(values)
        return windows.mean(axis=2).reshape(values.shape[0], -1)

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        batch = grad_output.shape[0]
        grad_maps = grad_output.reshape(batch, self.channels, -1)
        share = grad_maps / float(self.pool_size * self.pool_size)
        grad_input = np.zeros((batch, self.channels, self.input_height * self.input_width))
        window = np.broadcast_to(
            self._window_flat, (self.pool_size * self.pool_size, grad_maps.shape[2])
        )
        for element in range(window.shape[0]):
            np.add.at(grad_input, (slice(None), slice(None), window[element]), share)
        return grad_input.reshape(batch, -1)


class GlobalAvgPoolLayer(Layer):
    """Average over all spatial positions of each channel (static layer).

    Used as the final spatial reduction of the MiniSqueezeNet model, mirroring
    SqueezeNet's global average pooling before the classifier.
    """

    kind = LayerKind.STATIC

    def __init__(self, channels: int, input_height: int, input_width: int) -> None:
        self.channels = int(channels)
        self.input_height = int(input_height)
        self.input_width = int(input_width)

    @property
    def input_size(self) -> int:
        return self.channels * self.input_height * self.input_width

    @property
    def output_size(self) -> int:
        return self.channels

    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        maps = values.reshape(values.shape[0], self.channels, -1)
        return maps.mean(axis=2)

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        positions = self.input_height * self.input_width
        spread = np.repeat(grad_output[:, :, None] / positions, positions, axis=2)
        return spread.reshape(grad_output.shape[0], -1)
