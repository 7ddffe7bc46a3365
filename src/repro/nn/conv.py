"""2-D convolution layers (im2col on strided views, contracted with BLAS).

The layer operates on flat vectors like every other layer in the framework;
it carries its own ``(channels, height, width)`` metadata and reshapes
internally.  Patches are read from a strided sliding-window view of the
padded images and copied once into an im2col block, and every contraction
(forward, input backward, parameter Jacobian, parameter gradient) is a
matrix product, so it runs in BLAS GEMM.  The forward, input backward and
Jacobian run one GEMM per batch row, which keeps each row's result
independent of the batch height.  col2im scatters patch gradients back with
one strided-slice add per kernel offset.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LayerError, ShapeError
from repro.nn.layer import Layer, LayerKind


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution (or pooling) along one dimension."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise LayerError(
            f"invalid convolution geometry: kernel={kernel}, stride={stride}, "
            f"padding={padding} (kernel and stride must be >= 1, padding >= 0)"
        )
    usable = size + 2 * padding - kernel
    if usable < 0 or usable % stride != 0:
        raise LayerError(
            f"incompatible convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return usable // stride + 1


def window_slices(maps: np.ndarray, kernel_h: int, kernel_w: int, stride: int, out_h: int, out_w: int):
    """Yield one strided view of ``maps`` per window offset, in row-major order.

    ``maps`` is ``(..., height, width)``; the view for offset ``(i, j)`` is
    ``(..., out_h, out_w)`` and holds, for every output position, the window
    entry at that offset.  Views write through to ``maps``.
    """
    rows, cols = stride * out_h, stride * out_w
    for i in range(kernel_h):
        for j in range(kernel_w):
            yield maps[..., i:i + rows:stride, j:j + cols:stride]


class Conv2DLayer(Layer):
    """A 2-D convolution ``z = K * x + b``.

    Parameters are flattened as the kernel tensor ``(out_channels,
    in_channels, kernel_h, kernel_w)`` in row-major order followed by the
    per-output-channel bias.  The layer input/output are flat vectors in
    ``(channels, height, width)`` row-major layout.
    """

    kind = LayerKind.PARAMETERIZED

    def __init__(
        self,
        kernels,
        biases=None,
        *,
        input_height: int,
        input_width: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        self.kernels = np.asarray(kernels, dtype=np.float64)
        if self.kernels.ndim != 4:
            raise ShapeError("kernels must have shape (out_ch, in_ch, kh, kw)")
        self.out_channels, self.in_channels, self.kernel_h, self.kernel_w = self.kernels.shape
        if biases is None:
            self.biases = np.zeros(self.out_channels)
        else:
            self.biases = np.asarray(biases, dtype=np.float64).ravel()
            if self.biases.size != self.out_channels:
                raise ShapeError("biases must have one entry per output channel")
        self.input_height = int(input_height)
        self.input_width = int(input_width)
        self.stride = int(stride)
        self.padding = int(padding)
        self.output_height = conv_output_size(
            self.input_height, self.kernel_h, self.stride, self.padding
        )
        self.output_width = conv_output_size(
            self.input_width, self.kernel_w, self.stride, self.padding
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_shape(
        cls,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        input_height: int,
        input_width: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator,
    ) -> "Conv2DLayer":
        """He-style random initialization."""
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / max(1, fan_in))
        kernels = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size))
        return cls(
            kernels,
            np.zeros(out_channels),
            input_height=input_height,
            input_width=input_width,
            stride=stride,
            padding=padding,
        )

    # ------------------------------------------------------------------
    # Shape info
    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        return self.in_channels * self.input_height * self.input_width

    @property
    def output_size(self) -> int:
        return self.out_channels * self.output_height * self.output_width

    @property
    def num_positions(self) -> int:
        """Number of spatial output positions."""
        return self.output_height * self.output_width

    # ------------------------------------------------------------------
    # im2col helpers
    # ------------------------------------------------------------------
    def _pad(self, images: np.ndarray) -> np.ndarray:
        if self.padding == 0:
            return images
        pad = self.padding
        return np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))

    def _im2col(self, values: np.ndarray) -> np.ndarray:
        """Return im2col patches of shape ``(batch, in_ch * kh * kw, P)``."""
        batch = values.shape[0]
        images = values.reshape(batch, self.in_channels, self.input_height, self.input_width)
        stride = self.stride
        windows = np.lib.stride_tricks.sliding_window_view(
            self._pad(images), (self.kernel_h, self.kernel_w), axis=(2, 3)
        )[:, :, ::stride, ::stride]                                   # (b, c, oh, ow, kh, kw)
        patches = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
        return patches.reshape(batch, self.in_channels * self.kernel_h * self.kernel_w, -1)

    def _col2im(self, grad_patches: np.ndarray) -> np.ndarray:
        """Scatter patch gradients back to flat input gradients.

        One strided-slice add per kernel offset, in row-major kernel order,
        so every input element sums its contributions in the same order an
        index scatter over the im2col gather would.
        """
        batch = grad_patches.shape[0]
        padded_h = self.input_height + 2 * self.padding
        padded_w = self.input_width + 2 * self.padding
        grad_padded = np.zeros((batch, self.in_channels, padded_h, padded_w))
        grad_patches = grad_patches.reshape(
            batch, self.in_channels, self.kernel_h * self.kernel_w,
            self.output_height, self.output_width,
        )
        windows = window_slices(
            grad_padded, self.kernel_h, self.kernel_w, self.stride,
            self.output_height, self.output_width,
        )
        for offset, window in enumerate(windows):
            window += grad_patches[:, :, offset]
        if self.padding:
            pad = self.padding
            grad_padded = grad_padded[:, :, pad:-pad, pad:-pad]
        return grad_padded.reshape(batch, -1)

    def _kernel_matrix(self) -> np.ndarray:
        """The kernel tensor reshaped to ``(out_ch, in_ch * kh * kw)``."""
        return self.kernels.reshape(self.out_channels, -1)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self.input_size:
            raise ShapeError(
                f"expected input of size {self.input_size}, got {values.shape[1]}"
            )
        response = self._kernel_matrix() @ self._im2col(values)       # (b, o, P)
        response += self.biases[None, :, None]
        return response.reshape(values.shape[0], -1)

    def backward_input(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        grad_maps = grad_output.reshape(grad_output.shape[0], self.out_channels, -1)
        return self._col2im(self._kernel_matrix().T @ grad_maps)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.kernels.size + self.biases.size

    def get_parameters(self) -> np.ndarray:
        return np.concatenate([self.kernels.ravel(), self.biases])

    def set_parameters(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != self.num_parameters:
            raise LayerError(f"expected {self.num_parameters} parameters, got {flat.size}")
        split = self.kernels.size
        # Assignment freezes: views of a writable ``flat`` are copied.
        self.kernels = flat[:split].reshape(self.kernels.shape)
        self.biases = flat[split:]

    def batch_parameter_jacobian(
        self, downstream: np.ndarray, forward_inputs: np.ndarray
    ) -> np.ndarray:
        """See :meth:`Layer.batch_parameter_jacobian`.

        With ``Z[c, p] = Σ_q K[c, q] · cols[q, p] + b[c]`` and downstream map
        ``A`` (reshaped to ``(m, out_ch, P)``) we get
        ``∂(A z)/∂K[c, q] = Σ_p A[:, c, p] · cols[q, p]`` and
        ``∂(A z)/∂b[c] = Σ_p A[:, c, p]``.  The im2col patches of all points
        are gathered in one shot and one batched matrix product contracts
        them against the stacked downstream maps.
        """
        downstream = np.asarray(downstream, dtype=np.float64)
        forward_inputs = np.atleast_2d(np.asarray(forward_inputs, dtype=np.float64))
        if downstream.shape[2] != self.output_size:
            raise ShapeError(
                f"downstream maps have {downstream.shape[2]} columns, expected {self.output_size}"
            )
        k, m, _ = downstream.shape
        cols = self._im2col(forward_inputs)                                   # (k, q, P)
        maps = downstream.reshape(k, m * self.out_channels, -1)               # (k, m·c, P)
        kernel_block = (maps @ cols.transpose(0, 2, 1)).reshape(k, m, -1)     # (k, m, c·q)
        bias_block = maps.reshape(k, m, self.out_channels, -1).sum(axis=3)
        return np.concatenate([kernel_block, bias_block], axis=2)

    def backward_parameters(self, grad_output: np.ndarray, forward_input: np.ndarray) -> np.ndarray:
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        forward_input = np.atleast_2d(np.asarray(forward_input, dtype=np.float64))
        patches = self._im2col(forward_input)                                 # (b, q, P)
        grad_maps = grad_output.reshape(grad_output.shape[0], self.out_channels, -1)
        # Σ_b Σ_p G[b, o, p] · patches[b, q, p] as one GEMM over the (b, p) axis.
        grad_kernels = grad_maps.transpose(1, 0, 2).reshape(self.out_channels, -1) @ (
            patches.transpose(1, 0, 2).reshape(patches.shape[1], -1).T
        )
        grad_biases = grad_maps.sum(axis=(0, 2))
        return np.concatenate([grad_kernels.ravel(), grad_biases])
