"""Attacker-side upsampling of the frontier adjoint (BPDA-style substitutes).

Under PELTA the attacker cannot read the jacobians of the shielded stem, so
the best it can do is push the adjoint of the shallowest clear layer
(δ_{L+1}) back to the input space through a *substitute* operator (§IV-C and
§V-B of the paper):

* for CNN-family stems (ResNet, BiT) the natural substitute is a transposed
  convolution with a random-uniform initialised kernel — the backward-pass
  geometry of a convolution applied as a forward operation;
* for ViT stems the adjoint lives in token space, so the substitute is a
  random *unprojection* of each patch token back to its pixel patch (the
  transposed-convolution analogue of the patch embedding);
* an averaging upsampler is also provided: it preserves the spatial layout
  of the adjoint without any random mixing, which is the "average
  upsampling" the paper mentions as the reason shielded BiT models remain
  more exposed than shielded ViTs.

``make_attacker_view`` assembles the right view for any defender: a plain
model yields the exact white-box view, a shielded model yields the restricted
view armed with one of these substitutes.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.conv import conv_transpose2d_numpy
from repro.autodiff.tensor import get_default_dtype
from repro.core.shielded_model import ShieldedModel
from repro.core.views import FullWhiteBoxView, RestrictedWhiteBoxView
from repro.models.base import ImageClassifier
from repro.utils.rng import spawn_rng


class TransposedConvUpsampler:
    """Random-kernel transposed convolution from a spatial adjoint to the input.

    The kernel is drawn once per (adjoint shape, input shape) pair and reused
    across iterations, matching an attacker that trains/fixes a single
    substitute for the whole attack.
    """

    def __init__(self, rng: np.random.Generator | None = None, scale: float = 1.0):
        self._rng = rng if rng is not None else spawn_rng("attacks.bpda.transposed")
        self.scale = scale
        self._kernels: dict[tuple, tuple[np.ndarray, int]] = {}

    def _kernel_for(self, adjoint_shape: tuple, input_shape: tuple) -> tuple[np.ndarray, int]:
        key = (adjoint_shape[1:], input_shape[1:])
        if key not in self._kernels:
            _, c_out, h_p, w_p = adjoint_shape
            _, c_in, h, w = input_shape
            stride = max(h // h_p, 1)
            kernel_size = h - (h_p - 1) * stride
            if kernel_size < 1:
                stride = 1
                kernel_size = max(h - h_p + 1, 1)
            kernel = self._rng.uniform(
                -1.0, 1.0, size=(c_out, c_in, kernel_size, kernel_size)
            ) * (self.scale / np.sqrt(c_out * kernel_size * kernel_size))
            # The generator draws float64; cast so the substitute gradient does
            # not silently promote float32 attacks back to float64.
            self._kernels[key] = (kernel.astype(get_default_dtype(), copy=False), stride)
        return self._kernels[key]

    def __call__(self, adjoint: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
        if adjoint.ndim != 4:
            raise ValueError("TransposedConvUpsampler expects a (N, C, H, W) adjoint")
        kernel, stride = self._kernel_for(adjoint.shape, tuple(input_shape))
        _, _, h, w = input_shape
        return conv_transpose2d_numpy(adjoint, kernel, stride=stride, padding=0, output_size=(h, w))


class AverageUpsampler:
    """Channel-averaged nearest-neighbour upsampling of a spatial adjoint.

    No random mixing: the sign and spatial layout of the adjoint survive,
    which makes it the strongest non-informed substitute against CNN stems.
    """

    def __call__(self, adjoint: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
        if adjoint.ndim != 4:
            raise ValueError("AverageUpsampler expects a (N, C, H, W) adjoint")
        n, _, h_p, w_p = adjoint.shape
        _, c_in, h, w = input_shape
        averaged = adjoint.mean(axis=1, keepdims=True)  # collapse frontier channels
        factor_h = max(h // h_p, 1)
        factor_w = max(w // w_p, 1)
        upsampled = np.kron(averaged, np.ones((1, 1, factor_h, factor_w), dtype=adjoint.dtype))
        upsampled = upsampled[:, :, :h, :w]
        if upsampled.shape[2] < h or upsampled.shape[3] < w:
            pad_h = h - upsampled.shape[2]
            pad_w = w - upsampled.shape[3]
            upsampled = np.pad(upsampled, [(0, 0), (0, 0), (0, pad_h), (0, pad_w)], mode="edge")
        return np.broadcast_to(upsampled, (n, c_in, h, w)).copy()


class RandomProjectionUpsampler:
    """Random linear unprojection of a flat (N, D) adjoint back to the input.

    Used for MLP-style stems whose frontier is a flat feature vector: the
    attacker maps the adjoint back to pixel space with a fixed random matrix,
    the dense analogue of the random transposed-convolution kernel.
    """

    def __init__(self, rng: np.random.Generator | None = None, scale: float = 1.0):
        self._rng = rng if rng is not None else spawn_rng("attacks.bpda.flat")
        self.scale = scale
        self._kernels: dict[tuple, np.ndarray] = {}

    def __call__(self, adjoint: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
        if adjoint.ndim != 2:
            raise ValueError("RandomProjectionUpsampler expects a (N, D) adjoint")
        n, dim = adjoint.shape
        flat_size = int(np.prod(input_shape[1:]))
        key = (dim, flat_size)
        if key not in self._kernels:
            kernel = self._rng.uniform(-1.0, 1.0, size=(dim, flat_size)) * (
                self.scale / np.sqrt(dim)
            )
            self._kernels[key] = kernel.astype(get_default_dtype(), copy=False)
        projected = adjoint @ self._kernels[key]
        return projected.reshape(n, *input_shape[1:])


class TokenUnprojectionUpsampler:
    """Random unprojection of ViT patch-token adjoints back to pixel patches."""

    def __init__(self, rng: np.random.Generator | None = None, scale: float = 1.0):
        self._rng = rng if rng is not None else spawn_rng("attacks.bpda.tokens")
        self.scale = scale
        self._kernels: dict[tuple, np.ndarray] = {}

    def _kernel_for(self, dim: int, patch_elems: int) -> np.ndarray:
        key = (dim, patch_elems)
        if key not in self._kernels:
            kernel = self._rng.uniform(
                -1.0, 1.0, size=(dim, patch_elems)
            ) * (self.scale / np.sqrt(dim))
            self._kernels[key] = kernel.astype(get_default_dtype(), copy=False)
        return self._kernels[key]

    def __call__(self, adjoint: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
        if adjoint.ndim != 3:
            raise ValueError("TokenUnprojectionUpsampler expects a (N, T, D) adjoint")
        n, tokens, dim = adjoint.shape
        _, c, h, w = input_shape
        num_patches = tokens - 1  # drop the class token
        grid = int(round(np.sqrt(num_patches)))
        if grid * grid != num_patches:
            raise ValueError(f"cannot arrange {num_patches} patch tokens on a square grid")
        patch = h // grid
        kernel = self._kernel_for(dim, c * patch * patch)
        patch_tokens = adjoint[:, 1:, :]
        patches = patch_tokens @ kernel  # (N, num_patches, C*p*p)
        patches = patches.reshape(n, grid, grid, c, patch, patch)
        patches = patches.transpose(0, 3, 1, 4, 2, 5)
        return patches.reshape(n, c, grid * patch, grid * patch)


#: Names accepted by :func:`make_upsampler` / :func:`make_attacker_view`.
UPSAMPLER_STRATEGIES = (
    "auto",
    "transposed_conv",
    "average",
    "token_unprojection",
    "random_projection",
)


def make_upsampler(family: str, strategy: str = "auto", rng: np.random.Generator | None = None):
    """Build the upsampling substitute for a defender family."""
    if strategy not in UPSAMPLER_STRATEGIES:
        raise ValueError(f"unknown upsampling strategy {strategy!r}")
    if strategy == "auto":
        if family == "vit":
            strategy = "token_unprojection"
        elif family == "mlp":
            strategy = "random_projection"
        else:
            strategy = "transposed_conv"
    if strategy == "token_unprojection":
        return TokenUnprojectionUpsampler(rng)
    if strategy == "random_projection":
        return RandomProjectionUpsampler(rng)
    if strategy == "average":
        return AverageUpsampler()
    return TransposedConvUpsampler(rng)


def make_attacker_view(
    model: ImageClassifier | ShieldedModel,
    strategy: str = "auto",
    rng: np.random.Generator | None = None,
):
    """Build the gradient view an attacker gets for ``model``.

    Plain models yield the exact white-box view; shielded models yield the
    PELTA-restricted view whose gradients are upsampled frontier adjoints.
    The view starts eager; ``DriverConfig.backend`` selects captured replay.
    """
    if isinstance(model, ShieldedModel):
        upsampler = make_upsampler(model.family, strategy=strategy, rng=rng)
        return RestrictedWhiteBoxView(model, upsampler)
    return FullWhiteBoxView(model)
