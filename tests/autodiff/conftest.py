"""Shared helpers for the autodiff test suite.

CI runs this directory under both ``REPRO_DTYPE=float64`` and ``float32``
(the kernels and captured replays must be dtype-clean), so numeric-gradient
checks and value comparisons pick their finite-difference step and tolerance
from the active default dtype instead of assuming double precision.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor, get_default_dtype


def is_float64() -> bool:
    return get_default_dtype() == np.dtype(np.float64)


def grad_check_settings() -> tuple[float, float]:
    """(finite-difference eps, relative-error tolerance) for gradchecks.

    float32 kernels quantise every function evaluation to ~1e-7 relative, so
    the central-difference stencil needs a wider step and a looser bar.
    """
    if is_float64():
        return 1e-5, 5e-5
    return 4e-3, 8e-2


def value_atol() -> float:
    """Absolute tolerance for forward-value comparisons."""
    return 1e-10 if is_float64() else 1e-5


def value_rtol() -> float:
    """Relative tolerance for inner-product / reduction comparisons."""
    return 1e-10 if is_float64() else 1e-4


def away_from(x: np.ndarray, points=(0.0,), margin: float = 0.05) -> np.ndarray:
    """Push samples a safe distance from an op's non-smooth points.

    A central-difference stencil straddling a kink (relu/abs at 0, the
    scalar thresholds of maximum/minimum) measures the wrong one-sided
    slope; the float32 stencil is wide enough (4e-3) to make this likely,
    so gradcheck inputs keep a ``margin`` of clearance.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    for point in points:
        delta = x - point
        close = np.abs(delta) < margin
        x[close] = point + np.where(delta[close] >= 0.0, margin, -margin)
    return x


def window_pool(x: Tensor, reduce) -> Tensor:
    """2×2, stride-2 pooling of an ``(N, C, H, W)`` tensor from general ops.

    Crops odd trailing rows/columns, splits each spatial axis into
    (windows, 2) and reduces the two window axes with ``reduce``
    (``Tensor.max`` or ``Tensor.mean``), so test towers keep their
    downsampling stages without a dedicated pooling kernel.
    """
    n, c, height, width = x.shape
    rows, cols = height // 2, width // 2
    windows = x[:, :, : 2 * rows, : 2 * cols].reshape(n, c, rows, 2, cols, 2)
    return reduce(windows, axis=(3, 5))
