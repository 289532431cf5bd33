"""Neural-network layer library built on the autodiff engine."""

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.embedding import ClassToken, PatchEmbedding, PositionalEmbedding
from repro.nn.layers import (
    GELU,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GroupNorm,
    LayerNorm,
    Linear,
    ReLU,
    WSConv2d,
    ZeroPad2d,
)
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.trainer import TrainingHistory, fit_classifier, make_optimizer, train_epoch
from repro.nn.transformer import MLPBlock, TransformerEncoderBlock

__all__ = [
    "GELU",
    "SGD",
    "Adam",
    "BatchNorm2d",
    "ClassToken",
    "Conv2d",
    "Dropout",
    "GroupNorm",
    "LayerNorm",
    "Linear",
    "MLPBlock",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "PatchEmbedding",
    "PositionalEmbedding",
    "ReLU",
    "TrainingHistory",
    "TransformerEncoderBlock",
    "WSConv2d",
    "ZeroPad2d",
    "fit_classifier",
    "make_optimizer",
    "train_epoch",
]
