"""Neural-network layer library built on the autodiff engine."""

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.embedding import ClassToken, PatchEmbedding, PositionalEmbedding
from repro.nn.layers import (
    GELU,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    WSConv2d,
    ZeroPad2d,
)
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.trainer import TrainingHistory, fit_classifier, make_optimizer, train_epoch
from repro.nn.transformer import MLPBlock, TransformerEncoderBlock

__all__ = [
    "GELU",
    "SGD",
    "Adam",
    "AvgPool2d",
    "BatchNorm2d",
    "ClassToken",
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "GroupNorm",
    "LayerNorm",
    "Linear",
    "MLPBlock",
    "MaxPool2d",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "PatchEmbedding",
    "PositionalEmbedding",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "TrainingHistory",
    "TransformerEncoderBlock",
    "WSConv2d",
    "ZeroPad2d",
    "fit_classifier",
    "make_optimizer",
    "train_epoch",
]
