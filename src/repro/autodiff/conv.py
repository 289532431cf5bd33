"""Differentiable convolution and global pooling primitives (im2col based).

Input layout is ``(N, C, H, W)`` throughout, weights are
``(out_channels, in_channels, kh, kw)``.  The differentiable ops are
registered in :mod:`repro.autodiff.ops`; this module holds the im2col /
col2im geometry helpers their kernels share and the dispatching wrappers.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    images: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold image patches into a matrix of shape ``(N*out_h*out_w, C*kh*kw)``."""
    n, c, h, w = images.shape
    out_h = _output_size(h, kh, stride, padding)
    out_w = _output_size(w, kw, stride, padding)
    padded = np.pad(images, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    col = np.empty((n, c, kh, kw, out_h, out_w), dtype=images.dtype)
    for y in range(kh):
        y_max = y + stride * out_h
        for x in range(kw):
            x_max = x + stride * out_w
            col[:, :, y, x, :, :] = padded[:, :, y:y_max:stride, x:x_max:stride]
    col = col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kh * kw)
    return col, out_h, out_w


def im2col_into(
    images: np.ndarray, kh: int, kw: int, stride: int, padding: int, out: np.ndarray
) -> None:
    """Unfold image patches directly into ``out`` (``(N*out_h*out_w, C*kh*kw)``).

    Bit-identical to :func:`im2col` (both copy the same padded-input
    elements), but writes the caller's buffer in place (one sample's rows of
    a recorded ``saved["col"]`` matrix).
    """
    if not out.flags.c_contiguous:
        raise ValueError("im2col_into requires a C-contiguous out buffer")
    n, c, h, w = images.shape
    out_h = _output_size(h, kh, stride, padding)
    out_w = _output_size(w, kw, stride, padding)
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=images.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = images
    else:
        padded = images
    # ``out`` viewed as (N, out_h, out_w, C, kh, kw): position [s, oy, ox, ch,
    # y, x] is exactly where im2col's transpose lands patch [s, ch, oy, ox].
    col = out.reshape(n, out_h, out_w, c, kh, kw)
    for y in range(kh):
        y_max = y + stride * out_h
        for x in range(kw):
            x_max = x + stride * out_w
            col[:, :, :, :, y, x] = padded[:, :, y:y_max:stride, x:x_max:stride].transpose(
                0, 2, 3, 1
            )


def col2im(
    col: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch matrix back into images, accumulating overlapping entries."""
    n, c, h, w = image_shape
    out_h = _output_size(h, kh, stride, padding)
    out_w = _output_size(w, kw, stride, padding)
    col = col.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=col.dtype)
    for y in range(kh):
        y_max = y + stride * out_h
        for x in range(kw):
            x_max = x + stride * out_w
            padded[:, :, y:y_max:stride, x:x_max:stride] += col[:, :, y, x, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding : padding + h, padding : padding + w]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning convention for convolution)."""
    _, c_in, _, _ = x.shape
    _, c_in_w, _, _ = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return ops.apply("conv2d", inputs, {"stride": stride, "padding": padding})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling over the spatial dimensions, returns ``(N, C)``."""
    return x.mean(axis=(2, 3))


def conv_transpose2d_numpy(
    grad_like: np.ndarray,
    kernel: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    output_size: tuple[int, int] | None = None,
) -> np.ndarray:
    """Plain NumPy transposed convolution (no gradient tracking).

    This is the geometric "upsampling" operation the PELTA paper describes the
    attacker using on the adjoint of the shallowest clear layer (§V-B): the
    backward-pass geometry of a convolution applied as a forward operation.

    ``grad_like`` has shape ``(N, C_out, H', W')`` and ``kernel`` has shape
    ``(C_out, C_in, kh, kw)``; the result has shape ``(N, C_in, H, W)``.
    """
    n, c_out, out_h, out_w = grad_like.shape
    c_out_k, c_in, kh, kw = kernel.shape
    if c_out != c_out_k:
        raise ValueError(f"adjoint has {c_out} channels but kernel expects {c_out_k}")
    if output_size is None:
        h = (out_h - 1) * stride + kh - 2 * padding
        w = (out_w - 1) * stride + kw - 2 * padding
    else:
        h, w = output_size
    grad_matrix = grad_like.transpose(0, 2, 3, 1).reshape(-1, c_out)
    weight_matrix = kernel.reshape(c_out, -1)
    grad_col = grad_matrix @ weight_matrix
    return col2im(grad_col, (n, c_in, h, w), kh, kw, stride, padding)
