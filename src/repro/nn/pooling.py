"""Pooling layers.

``MaxPool2DLayer`` is a piecewise-linear *activation* layer: in a Decoupled
DNN its value-channel replacement is the selection map determined by the
activation channel's argmax (each window passes on the value-channel entry
at the position where the activation channel's window is maximal).
``AvgPool2DLayer`` is a fixed linear map and therefore a *static* layer.

Both read their windows as ``pool_size²`` strided slices of the input maps,
one per window offset in row-major order: slice ``(i, j)`` holds, for every
output position, the window entry at offset ``(i, j)``.  Reductions run over
those slices in that order (a running maximum, a running first-argmax, a
running sum), so each output sees its window entries in the order an index
gather of the window would list them.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.conv import conv_output_size, window_slices
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
        self.output_height = conv_output_size(self.input_height, self.pool_size, self.stride, 0)
        self.output_width = conv_output_size(self.input_width, self.pool_size, self.stride, 0)

    @property
    def input_size(self) -> int:
        return self.channels * self.input_height * self.input_width

    @property
    def output_size(self) -> int:
        return self.channels * self.output_height * self.output_width

    def _window_slices(self, values: np.ndarray):
        """Yield the window entries at each offset, in row-major offset order.

        Each slice is a ``(batch, channels, out_h, out_w)`` strided view.
        """
        maps = values.reshape(values.shape[0], self.channels, self.input_height, self.input_width)
        return window_slices(
            maps, self.pool_size, self.pool_size, self.stride, self.output_height, self.output_width
        )


class MaxPool2DLayer(_Pool2DBase):
    """Max pooling; a piecewise-linear activation layer."""

    kind = LayerKind.ACTIVATION
    is_piecewise_linear = True

    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self.input_size:
            raise ShapeError(f"expected input of size {self.input_size}, got {values.shape[1]}")
        windows = self._window_slices(values)
        result = next(windows).copy()
        for window in windows:
            np.maximum(result, window, out=result)
        return result.reshape(values.shape[0], -1)

    def _first_max(self, batch: np.ndarray) -> np.ndarray:
        """Row-major window offset of each window's first maximal entry.

        Returns ``(batch, channels, out_h, out_w)`` offsets, chosen as
        ``np.argmax`` over the window would: ties keep the earliest entry,
        and the first NaN wins.
        """
        windows = self._window_slices(batch)
        best = next(windows).copy()
        winners = np.zeros(best.shape, dtype=np.intp)
        for offset, window in enumerate(windows, start=1):
            better = (window > best) | (np.isnan(window) & ~np.isnan(best))
            np.copyto(best, window, where=better)
            winners[better] = offset
        return winners

    def _argmax_flat_indices_batch(self, batch: np.ndarray) -> np.ndarray:
        """Flat input index selected by each output coordinate, per batch row.

        Returns ``(batch, output_size)`` indices into the flat input.
        """
        winners = self._first_max(batch)                            # (B, C, oh, ow)
        rows = self.stride * np.arange(self.output_height)[:, None] + winners // self.pool_size
        cols = self.stride * np.arange(self.output_width)[None, :] + winners % self.pool_size
        channel_offsets = (
            np.arange(self.channels)[:, None, None] * self.input_height * self.input_width
        )
        return (channel_offsets + rows * self.input_width + cols).reshape(batch.shape[0], -1)

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
        winners = self._first_max(activation_batch)                 # (B, C, oh, ow)
        selected = np.empty(winners.shape)
        for offset, window in enumerate(self._window_slices(value_batch)):
            np.copyto(selected, window, where=winners == offset)
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
        # Start from +0.0, as numpy's sum does, so a window of -0.0s averages to 0.0.
        total = np.zeros((values.shape[0], self.channels, self.output_height, self.output_width))
        for window in self._window_slices(values):
            total += window
        total /= float(self.pool_size * self.pool_size)
        return total.reshape(values.shape[0], -1)

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        batch = grad_output.shape[0]
        share = grad_output.reshape(
            batch, self.channels, self.output_height, self.output_width
        ) / float(self.pool_size * self.pool_size)
        grad_input = np.zeros((batch, self.channels * self.input_height * self.input_width))
        for window in self._window_slices(grad_input):
            window += share
        return grad_input


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
