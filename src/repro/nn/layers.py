"""Core layers: dense, convolutional, normalisation, activations, dropout, padding."""

from __future__ import annotations

import numpy as np

from repro.autodiff import conv as conv_ops
from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import get_rng


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Accepts inputs with any number of leading dimensions; the last dimension
    must equal ``in_features``.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features)), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        original_shape = x.shape
        if x.ndim > 2:
            x = x.reshape(-1, self.in_features)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        if len(original_shape) > 2:
            out = out.reshape(*original_shape[:-1], self.out_features)
        return out


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size)),
            name="weight",
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class WSConv2d(Conv2d):
    """Weight-standardised convolution, as used by the Big Transfer models.

    The kernel is standardised per output channel (zero mean, unit variance
    over input channels and spatial positions) before the convolution.  This
    is the non-invertible parametric transform the paper shields for BiT.
    """

    def forward(self, x: Tensor) -> Tensor:
        weight = self.weight
        flat = weight.reshape(self.out_channels, -1)
        mean = flat.mean(axis=1, keepdims=True)
        centred = flat - mean
        var = (centred * centred).mean(axis=1, keepdims=True)
        standardised = centred / (var + 1e-5).sqrt()
        standardised = standardised.reshape(*weight.shape)
        return conv_ops.conv2d(x, standardised, self.bias, stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-6):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normalised = centred / (var + self.eps).sqrt()
        return normalised * self.weight + self.bias


class BatchNorm2d(Module):
    """Batch normalisation over ``(N, C, H, W)`` inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        # An empty batch has no statistics; it must not touch the running ones.
        if self.training and x.shape[0]:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centred = x - mean
            var = (centred * centred).mean(axis=(0, 2, 3), keepdims=True)
            self.update_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean.data.reshape(-1),
            )
            self.update_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * var.data.reshape(-1),
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
            centred = x - mean
        normalised = centred / (var + self.eps).sqrt()
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        return normalised * scale + shift


class GroupNorm(Module):
    """Group normalisation over ``(N, C, H, W)`` inputs (used by BiT)."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError("num_channels must be divisible by num_groups")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(init.ones((num_channels,)), name="weight")
        self.bias = Parameter(init.zeros((num_channels,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        grouped = x.reshape(n, self.num_groups, c // self.num_groups, h, w)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        centred = grouped - mean
        var = (centred * centred).mean(axis=(2, 3, 4), keepdims=True)
        normalised = (centred / (var + self.eps).sqrt()).reshape(n, c, h, w)
        scale = self.weight.reshape(1, c, 1, 1)
        shift = self.bias.reshape(1, c, 1, 1)
        return normalised * scale + shift


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class GELU(Module):
    """Gaussian error linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, rate: float = 0.1, rng_name: str = "dropout"):
        super().__init__()
        self.rate = rate
        self._rng = get_rng(rng_name)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)


class ZeroPad2d(Module):
    """Explicit zero padding of the spatial dimensions.

    BiT models pad the input before the first weight-standardised convolution;
    the padding operation is part of the shielded stem in the paper.
    """

    def __init__(self, padding: int):
        super().__init__()
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        p = self.padding
        return x.pad([(0, 0), (0, 0), (p, p), (p, p)])
