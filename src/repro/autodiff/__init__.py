"""Reverse-mode automatic differentiation engine with an explicit graph.

The engine is intentionally small but complete enough to express the models
the PELTA paper evaluates (Vision Transformers, ResNet-v2 / BiT CNNs): dense
and convolutional layers, attention, normalisation layers and the usual
activations, all with exact gradients.  Every forward pass records a
computational graph that :mod:`repro.core` (the PELTA shielding algorithm)
can inspect and shield.
"""

from repro.autodiff.capture import (
    EXECUTION_BACKENDS,
    CapturedExecution,
    EagerExecution,
    GraphCaptureError,
    GraphRecording,
    TraceHandles,
    resolve_execution_backend,
)
from repro.autodiff.context import (
    ShieldRegion,
    active_shield_region,
    frozen_parameters,
    is_grad_enabled,
    no_grad,
    shield_scope,
)
from repro.autodiff.conv import (
    col2im,
    conv2d,
    conv_transpose2d_numpy,
    global_avg_pool2d,
    im2col,
)
from repro.autodiff.functional import (
    cross_entropy,
    dropout,
    gelu,
    log_softmax,
    margin_loss,
    mse_loss,
    nll_loss,
    relu,
    sigmoid,
    softmax,
)
from repro.autodiff.graph import GraphNode, GraphSnapshot
from repro.autodiff.numeric import numerical_gradient, relative_error
from repro.autodiff.ops import (
    GradSample,
    Op,
    OpCall,
    apply,
    registered_ops,
)
from repro.autodiff.profiler import OpProfiler, active_profiler, profile_ops
from repro.autodiff.tensor import (
    Tensor,
    concat,
    get_default_dtype,
    set_default_dtype,
    stack,
    topological_order,
    unbroadcast,
)

__all__ = [
    "CapturedExecution",
    "EXECUTION_BACKENDS",
    "EagerExecution",
    "GradSample",
    "GraphCaptureError",
    "GraphNode",
    "GraphRecording",
    "GraphSnapshot",
    "Op",
    "OpCall",
    "OpProfiler",
    "ShieldRegion",
    "Tensor",
    "TraceHandles",
    "apply",
    "registered_ops",
    "resolve_execution_backend",
    "active_profiler",
    "active_shield_region",
    "col2im",
    "concat",
    "conv2d",
    "conv_transpose2d_numpy",
    "cross_entropy",
    "dropout",
    "frozen_parameters",
    "gelu",
    "get_default_dtype",
    "global_avg_pool2d",
    "im2col",
    "is_grad_enabled",
    "log_softmax",
    "margin_loss",
    "mse_loss",
    "nll_loss",
    "no_grad",
    "numerical_gradient",
    "profile_ops",
    "relative_error",
    "relu",
    "set_default_dtype",
    "shield_scope",
    "sigmoid",
    "softmax",
    "stack",
    "topological_order",
    "unbroadcast",
]
