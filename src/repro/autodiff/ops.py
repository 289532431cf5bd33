"""Declarative op registry: the single code path every autodiff op goes through.

Historically each operation hand-rolled an inline ``forward_fn``/``backward_fn``
closure pair at its call site — ~60 of them scattered across ``tensor.py``,
``functional.py`` and ``conv.py``.  This module makes ops first-class
declarative objects instead:

* an :class:`Op` bundles the op's name, its forward kernel (with ``out=``
  support so captured replays can write in place), its
  backward kernel, FLOP + byte cost metadata, and gradient-check sample
  configurations;
* :func:`apply` is the one dispatcher that runs the kernel, builds the graph
  node, wires the backward closure, registers the capture thunk, applies the
  shield-region policy (via :class:`~repro.autodiff.tensor.Tensor` creation)
  and feeds the per-op profiler.

PELTA's shielding algorithm (Alg. 1) reasons over the op graph, so the
registry is also the natural home for the metadata the TEE cost model needs:
:mod:`repro.core.memory_cost` derives Table I's resident-byte numbers from
:meth:`Op.output_nbytes` instead of keeping parallel bookkeeping, and the
FLOP/byte rules feed the ``--profile`` accounting.

Bit-identity with the closure-based engine is the hard constraint here: every
kernel evaluates exactly the NumPy expressions the old closures evaluated, in
the same order, and the dispatcher accumulates parent gradients in the same
order — so eager results, captured replays and gradients are unchanged to the
last bit.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.autodiff import profiler as _profiler
from repro.autodiff.tensor import Tensor, unbroadcast

__all__ = [
    "GradSample",
    "Op",
    "OpCall",
    "apply",
    "get",
    "register",
    "registered_ops",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


# --------------------------------------------------------------------------- #
# Kernel helpers
# --------------------------------------------------------------------------- #
def _store(value: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Land ``value`` in ``out`` when a compatible buffer was supplied."""
    if out is None or out.shape != value.shape or out.dtype != value.dtype:
        return value
    np.copyto(out, value)
    return out


def _refresh(saved: dict, key: str, value: np.ndarray) -> np.ndarray:
    """Keep a record-time buffer alive across replays, refreshed in place.

    The first call stores ``value``; later calls copy the new value into the
    *same* array object, so backward closures that captured it keep reading
    the current forward pass.
    """
    existing = saved.get(key)
    if existing is None:
        saved[key] = value
        return value
    np.copyto(existing, value)
    return existing


def _prod(shape: Sequence[int]) -> int:
    out = 1
    for dim in shape:
        out *= int(dim)
    return out


def _default_cost(
    in_shapes: tuple[tuple[int, ...], ...],
    out_shape: tuple[int, ...],
    params: dict,
    itemsize: int,
) -> tuple[int, int]:
    """Generic cost rule: one FLOP per output element, stream all operands."""
    out_elems = _prod(out_shape)
    moved = (sum(_prod(shape) for shape in in_shapes) + out_elems) * itemsize
    return out_elems, moved


@dataclass(frozen=True)
class GradSample:
    """One numeric-gradient check configuration derived from the shape rule."""

    shapes: tuple[tuple[int, ...], ...]
    params: dict = field(default_factory=dict)
    #: Sample inputs uniformly from (low, high); keep the range away from the
    #: op's non-smooth points (0 for relu/abs, ties for max).
    low: float = -2.0
    high: float = 2.0
    #: Declares the op needs positive-only inputs (log, sqrt, div); enforced
    #: against the sampling range at registration time.
    positive: bool = False

    def __post_init__(self) -> None:
        if self.positive and self.low <= 0.0:
            raise ValueError(
                f"positive GradSample requires low > 0, got low={self.low}"
            )
        if self.high <= self.low:
            raise ValueError(f"empty sampling range ({self.low}, {self.high})")


@dataclass(frozen=True)
class Op:
    """A declarative autodiff operation.

    ``forward(inputs, params, saved, out)`` computes the output array; it may
    write into ``out`` when one is supplied and must refresh any ``saved``
    buffers in place (captured replays call it again with the same dicts).
    ``backward(ctx, grad)`` returns one gradient array per input (``None``
    for inputs that don't need one — ``ctx.needs`` is the live
    ``requires_grad`` flags, so frozen parameters skip their work).
    """

    name: str
    forward: Callable[[tuple, dict, dict, np.ndarray | None], np.ndarray]
    backward: Callable[["OpCall", np.ndarray], tuple] | None
    #: Whether a recorded node of this op can be replayed (dropout cannot:
    #: it redraws its mask per call).
    replayable: bool = True
    #: ``(in_shapes, out_shape, params, itemsize) -> (flops, bytes_moved)``.
    cost: Callable = _default_cost
    #: Gradient-check configurations; ops with an empty tuple must explain
    #: themselves in ``gradcheck_skip`` (enforced by the registry test).
    samples: tuple[GradSample, ...] = ()
    gradcheck_skip: str | None = None

    def output_nbytes(self, shape: tuple[int, ...], dtype) -> int:
        """Resident bytes of this op's output (feeds the TEE memory model)."""
        return _prod(shape) * np.dtype(dtype).itemsize

    def cost_of(
        self,
        in_shapes: tuple[tuple[int, ...], ...],
        out_shape: tuple[int, ...],
        params: dict,
        itemsize: int,
    ) -> tuple[int, int]:
        """FLOPs and bytes moved by one forward evaluation."""
        return self.cost(in_shapes, out_shape, params, itemsize)


class OpCall:
    """One dispatched op application: the per-node context kernels run in.

    Instances live as ``tensor._op_call`` on op outputs, giving the capture
    layer and the profiler access to the kernel, its parameters and its
    saved record-time buffers.
    """

    __slots__ = ("op", "tensors", "params", "saved", "_output_ref", "__weakref__")

    def __init__(self, op: Op, tensors: tuple[Tensor, ...], params: dict):
        self.op = op
        self.tensors = tensors
        self.params = params
        self.saved: dict = {}
        self._output_ref: weakref.ref | None = None

    @property
    def output(self) -> Tensor | None:
        """The node this call produced.

        Held weakly: the node owns the call (``tensor._op_call``), so a
        strong back-reference would cycle every graph through the garbage
        collector instead of letting step loops reclaim dead graphs by
        refcount.  The node is always alive when kernels or backward
        closures run (they are reachable only through it).
        """
        return self._output_ref() if self._output_ref is not None else None

    @output.setter
    def output(self, node: Tensor) -> None:
        self._output_ref = weakref.ref(node)

    # Live reads: parents' ``data`` may be refreshed (captured replay) or
    # replaced (load_state_dict) between calls, so never cache the arrays.
    @property
    def inputs(self) -> tuple[np.ndarray, ...]:
        return tuple(tensor.data for tensor in self.tensors)

    @property
    def needs(self) -> tuple[bool, ...]:
        return tuple(tensor.requires_grad for tensor in self.tensors)

    @property
    def out_data(self) -> np.ndarray:
        return self._output_ref().data

    def kernel(self, out: np.ndarray | None = None) -> np.ndarray:
        """Run the forward kernel against the live input buffers."""
        return self.op.forward(self.inputs, self.params, self.saved, out)


# --------------------------------------------------------------------------- #
# Registry + dispatcher
# --------------------------------------------------------------------------- #
REGISTRY: dict[str, Op] = {}


def register(op: Op) -> Op:
    """Add an op to the registry (its name must be unused)."""
    if op.name in REGISTRY:
        raise ValueError(f"op {op.name!r} is already registered")
    REGISTRY[op.name] = op
    return op


def get(name: str) -> Op:
    """Look up a registered op by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown op {name!r}; registered: {sorted(REGISTRY)}") from None


def registered_ops() -> tuple[str, ...]:
    """Names of every registered op, sorted."""
    return tuple(sorted(REGISTRY))


def apply(op: Op | str, inputs: Sequence, params: dict | None = None) -> Tensor:
    """Dispatch one op: run the kernel, build the graph node, wire gradients.

    This replaces every hand-rolled closure pair: one code path creates the
    output tensor (inheriting the active shield region), attaches the
    backward closure only when gradients are enabled and needed, registers
    the capture thunk for replayable ops, and reports to the profiler.
    """
    if isinstance(op, str):
        op = get(op)
    params = params if params is not None else {}
    tensors = tuple(x if isinstance(x, Tensor) else Tensor(x) for x in inputs)
    call = OpCall(op, tensors, params)
    arrays = call.inputs
    profiler = _profiler.active_profiler()
    if profiler is not None:
        started = time.perf_counter()
        data = op.forward(arrays, params, call.saved, None)
        elapsed = time.perf_counter() - started
        flops, moved = op.cost_of(
            tuple(array.shape for array in arrays), data.shape, params, data.dtype.itemsize
        )
        profiler.record(op.name, elapsed, flops, moved)
    else:
        data = op.forward(arrays, params, call.saved, None)
    requires_grad = any(tensor.requires_grad for tensor in tensors)
    node = Tensor(data, requires_grad=requires_grad, parents=tensors, op=op.name)
    call.output = node
    if node.requires_grad and op.backward is not None:

        def backward_fn(grad: np.ndarray) -> None:
            grads = op.backward(call, grad)
            for tensor, parent_grad in zip(tensors, grads):
                if parent_grad is not None:
                    tensor._accumulate(parent_grad)

        node.backward_fn = backward_fn
    if op.replayable:
        node.forward_fn = call.kernel
    node._op_call = call
    return node


# --------------------------------------------------------------------------- #
# Cost rules for the non-elementwise kernels
# --------------------------------------------------------------------------- #
def _matmul_cost(in_shapes, out_shape, params, itemsize):
    inner = in_shapes[0][-1]
    flops = 2 * _prod(out_shape) * int(inner)
    moved = (sum(_prod(shape) for shape in in_shapes) + _prod(out_shape)) * itemsize
    return flops, moved


def _conv2d_cost(in_shapes, out_shape, params, itemsize):
    c_out, c_in, kh, kw = in_shapes[1]
    flops = 2 * _prod(out_shape) * int(c_in) * int(kh) * int(kw)
    moved = (sum(_prod(shape) for shape in in_shapes) + _prod(out_shape)) * itemsize
    return flops, moved


def _view_cost(in_shapes, out_shape, params, itemsize):
    """Shape ops move metadata only (the kernels return views where possible)."""
    return 0, 0


def _getitem_cost(in_shapes, out_shape, params, itemsize):
    """Basic slicing is a view; advanced (array/list) indexing is a gather."""
    index = params["index"]
    parts = index if isinstance(index, tuple) else (index,)
    if any(isinstance(part, (np.ndarray, list)) for part in parts):
        return 0, 2 * _prod(out_shape) * itemsize  # read + write the gather
    return 0, 0


# --------------------------------------------------------------------------- #
# Arithmetic kernels
# --------------------------------------------------------------------------- #
def _add_forward(inputs, params, saved, out):
    a, b = inputs
    return np.add(a, b, out=out) if out is not None else a + b


def _add_backward(ctx, grad):
    a, b = ctx.inputs
    needs = ctx.needs
    return (
        unbroadcast(grad, a.shape) if needs[0] else None,
        unbroadcast(grad, b.shape) if needs[1] else None,
    )


def _sub_forward(inputs, params, saved, out):
    a, b = inputs
    return np.subtract(a, b, out=out) if out is not None else a - b


def _sub_backward(ctx, grad):
    a, b = ctx.inputs
    needs = ctx.needs
    return (
        unbroadcast(grad, a.shape) if needs[0] else None,
        unbroadcast(-grad, b.shape) if needs[1] else None,
    )


def _mul_forward(inputs, params, saved, out):
    a, b = inputs
    return np.multiply(a, b, out=out) if out is not None else a * b


def _mul_backward(ctx, grad):
    a, b = ctx.inputs
    needs = ctx.needs
    return (
        unbroadcast(grad * b, a.shape) if needs[0] else None,
        unbroadcast(grad * a, b.shape) if needs[1] else None,
    )


def _div_forward(inputs, params, saved, out):
    a, b = inputs
    return np.divide(a, b, out=out) if out is not None else a / b


def _div_backward(ctx, grad):
    a, b = ctx.inputs
    needs = ctx.needs
    return (
        unbroadcast(grad / b, a.shape) if needs[0] else None,
        unbroadcast(-grad * a / (b**2), b.shape) if needs[1] else None,
    )


def _neg_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.negative(x, out=out) if out is not None else -x


def _neg_backward(ctx, grad):
    return ((-grad) if ctx.needs[0] else None,)


def _pow_forward(inputs, params, saved, out):
    (x,) = inputs
    power = params["power"]
    return np.power(x, power, out=out) if out is not None else x**power


def _pow_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    power = ctx.params["power"]
    return (grad * power * x ** (power - 1.0),)


def _matmul_forward(inputs, params, saved, out):
    a, b = inputs
    return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)


def _matmul_backward(ctx, grad):
    a, b = ctx.inputs
    needs = ctx.needs
    # Each operand's gradient is a full matmul; skip the ones nobody will
    # read (e.g. frozen parameters during attack queries).
    grad_a = grad_b = None
    if needs[0]:
        grad_a = unbroadcast(np.matmul(grad, np.swapaxes(b, -1, -2)), a.shape)
    if needs[1]:
        grad_b = unbroadcast(np.matmul(np.swapaxes(a, -1, -2), grad), b.shape)
    return (grad_a, grad_b)


# --------------------------------------------------------------------------- #
# Elementwise unary kernels
# --------------------------------------------------------------------------- #
def _exp_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.exp(x, out=out) if out is not None else np.exp(x)


def _exp_backward(ctx, grad):
    # ``out_data`` is the node's own buffer: replays refresh it in place, so
    # the backward always reads the current forward value.
    return ((grad * ctx.out_data) if ctx.needs[0] else None,)


def _log_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.log(x, out=out) if out is not None else np.log(x)


def _log_backward(ctx, grad):
    return ((grad / ctx.inputs[0]) if ctx.needs[0] else None,)


def _sqrt_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.sqrt(x, out=out) if out is not None else np.sqrt(x)


def _sqrt_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    return (grad * 0.5 / np.maximum(ctx.out_data, 1e-12),)


def _tanh_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.tanh(x, out=out) if out is not None else np.tanh(x)


def _tanh_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    return (grad * (1.0 - ctx.out_data**2),)


def _abs_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.abs(x, out=out) if out is not None else np.abs(x)


def _abs_backward(ctx, grad):
    return ((grad * np.sign(ctx.inputs[0])) if ctx.needs[0] else None,)


def _maximum_forward(inputs, params, saved, out):
    (x,) = inputs
    value = params["value"]
    return np.maximum(x, value, out=out) if out is not None else np.maximum(x, value)


def _maximum_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    return (grad * (ctx.inputs[0] > ctx.params["value"]),)


def _minimum_forward(inputs, params, saved, out):
    (x,) = inputs
    value = params["value"]
    return np.minimum(x, value, out=out) if out is not None else np.minimum(x, value)


def _minimum_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    return (grad * (ctx.inputs[0] < ctx.params["value"]),)


# --------------------------------------------------------------------------- #
# Reduction kernels
# --------------------------------------------------------------------------- #
def _sum_forward(inputs, params, saved, out):
    (x,) = inputs
    return _store(x.sum(axis=params["axis"], keepdims=params["keepdims"]), out)


def _sum_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    axis, keepdims = ctx.params["axis"], ctx.params["keepdims"]
    expanded = grad
    if axis is not None and not keepdims:
        expanded = np.expand_dims(grad, axis)
    return (np.broadcast_to(expanded, x.shape).copy(),)


def _mean_forward(inputs, params, saved, out):
    (x,) = inputs
    return _store(x.mean(axis=params["axis"], keepdims=params["keepdims"]), out)


def _mean_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    axis, keepdims = ctx.params["axis"], ctx.params["keepdims"]
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[a] for a in axes]))
    expanded = grad
    if axis is not None and not keepdims:
        expanded = np.expand_dims(grad, axis)
    return (np.broadcast_to(expanded, x.shape).copy() / count,)


def _max_forward(inputs, params, saved, out):
    (x,) = inputs
    return _store(x.max(axis=params["axis"], keepdims=params["keepdims"]), out)


def _max_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    axis, keepdims = ctx.params["axis"], ctx.params["keepdims"]
    expanded_grad = grad
    expanded_data = ctx.out_data
    if axis is not None and not keepdims:
        expanded_grad = np.expand_dims(grad, axis)
        expanded_data = np.expand_dims(ctx.out_data, axis)
    mask = (x == expanded_data).astype(x.dtype)
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return (mask * expanded_grad / counts,)


# --------------------------------------------------------------------------- #
# Shape kernels
# --------------------------------------------------------------------------- #
def _reshape_forward(inputs, params, saved, out):
    (x,) = inputs
    return x.reshape(params["shape"])


def _reshape_backward(ctx, grad):
    return (grad.reshape(ctx.inputs[0].shape) if ctx.needs[0] else None,)


def _transpose_forward(inputs, params, saved, out):
    (x,) = inputs
    return x.transpose(params["axes"])


def _transpose_backward(ctx, grad):
    return (grad.transpose(ctx.params["inverse"]) if ctx.needs[0] else None,)


def _getitem_forward(inputs, params, saved, out):
    (x,) = inputs
    return x[params["index"]]


def _getitem_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    full = np.zeros_like(x)
    np.add.at(full, ctx.params["index"], grad)
    return (full,)


def _pad_forward(inputs, params, saved, out):
    (x,) = inputs
    return _store(np.pad(x, params["pad_width"]), out)


def _pad_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    slices = tuple(
        slice(before, before + dim)
        for (before, _), dim in zip(ctx.params["pad_width"], x.shape)
    )
    return (grad[slices],)


def _concat_forward(inputs, params, saved, out):
    return _store(np.concatenate(list(inputs), axis=params["axis"]), out)


def _concat_backward(ctx, grad):
    axis = ctx.params["axis"]
    arrays = ctx.inputs
    offsets = np.cumsum([0] + [array.shape[axis] for array in arrays])
    grads = []
    for array, start, stop, needed in zip(arrays, offsets[:-1], offsets[1:], ctx.needs):
        if not needed:
            grads.append(None)
            continue
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(int(start), int(stop))
        grads.append(grad[tuple(slicer)])
    return tuple(grads)


def _stack_forward(inputs, params, saved, out):
    return _store(np.stack(list(inputs), axis=params["axis"]), out)


def _stack_backward(ctx, grad):
    axis = ctx.params["axis"]
    pieces = np.split(grad, len(ctx.tensors), axis=axis)
    return tuple(
        np.squeeze(piece, axis=axis) if needed else None
        for piece, needed in zip(pieces, ctx.needs)
    )


# --------------------------------------------------------------------------- #
# Activation / loss kernels (previously in functional.py closures)
# --------------------------------------------------------------------------- #
def _relu_forward(inputs, params, saved, out):
    (x,) = inputs
    return np.maximum(x, 0.0, out=out) if out is not None else np.maximum(x, 0.0)


def _relu_backward(ctx, grad):
    return ((grad * (ctx.inputs[0] > 0.0)) if ctx.needs[0] else None,)


def _sigmoid_forward(inputs, params, saved, out):
    (x,) = inputs
    if out is not None:
        # Staged in place: each ufunc sees the same operand values as the
        # expression below, so the result is bit-identical.
        np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        np.divide(1.0, out, out=out)
        return out
    return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    data = ctx.out_data
    return (grad * data * (1.0 - data),)


# The cube is two multiplications, not a power: NumPy evaluates a cube as a
# per-element ``pow()``, whose negative-base path is ~10x slower.
def _gelu_forward(inputs, params, saved, out):
    (x,) = inputs
    # Staged in place, operand for operand: u = sqrt(2/pi) * (x + 0.044715 *
    # x^3), t = tanh(u), y = 0.5 * x * (1 + t).  Replays write t straight into
    # the recorded buffer the backward closure reads.
    work = np.multiply(x, x)
    work *= x
    work *= 0.044715
    work += x
    work *= _SQRT_2_OVER_PI
    t = saved.get("t")
    if t is None:
        t = saved["t"] = np.tanh(work)
    else:
        np.tanh(work, out=t)
    if out is not None and (out.shape != x.shape or out.dtype != work.dtype):
        out = None
    result = np.multiply(0.5, x, out=out)
    result *= np.add(1.0, t, out=work)
    return result


def _gelu_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (x,) = ctx.inputs
    t = ctx.saved["t"]
    # Two work buffers; each ufunc sees the operands of the closed form
    # grad * (0.5*(1+t) + 0.5*x * ((1-t**2) * (sqrt(2/pi)*(1 + 3*0.044715*x**2)))),
    # so the result is bit-identical to evaluating it directly.
    du_dx = np.multiply(x, x)
    du_dx *= 3.0 * 0.044715
    du_dx += 1.0
    du_dx *= _SQRT_2_OVER_PI
    dt_dx = np.multiply(t, t)
    np.subtract(1.0, dt_dx, out=dt_dx)
    dt_dx *= du_dx
    dt_dx *= np.multiply(0.5, x, out=du_dx)
    local = np.add(1.0, t, out=du_dx)
    local *= 0.5
    local += dt_dx
    if grad.shape != local.shape or np.result_type(grad, local) != local.dtype:
        return (grad * local,)
    return (np.multiply(grad, local, out=local),)


def _softmax_forward(inputs, params, saved, out):
    (x,) = inputs
    axis = params["axis"]
    # Staged in one fresh buffer: the row sums then add in the same memory
    # order as the three-temporary expression, so the result is bit-identical.
    data = np.subtract(x, x.max(axis=axis, keepdims=True))
    np.exp(data, out=data)
    np.divide(data, data.sum(axis=axis, keepdims=True), out=data)
    return _store(data, out)


def _softmax_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    axis = ctx.params["axis"]
    data = ctx.out_data
    # One buffer: grad * data for the row dots, then data * (grad - dot).
    work = np.multiply(grad, data)
    dot = work.sum(axis=axis, keepdims=True)
    np.subtract(grad, dot, out=work)
    work *= data
    return (work,)


def _log_softmax_forward(inputs, params, saved, out):
    (x,) = inputs
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm
    _refresh(saved, "probs", np.exp(data))
    return _store(data, out)


def _log_softmax_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    probs = ctx.saved["probs"]
    return (grad - probs * grad.sum(axis=ctx.params["axis"], keepdims=True),)


def _nll_loss_forward(inputs, params, saved, out):
    (log_probs,) = inputs
    targets, reduction = params["targets"], params["reduction"]
    picked = log_probs[np.arange(log_probs.shape[0]), targets]
    if reduction == "mean":
        return _store(np.asarray(-picked.mean()), out)
    if reduction == "sum":
        return _store(np.asarray(-picked.sum()), out)
    return _store(-picked, out)


def _nll_loss_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (log_probs,) = ctx.inputs
    targets, reduction = ctx.params["targets"], ctx.params["reduction"]
    batch = log_probs.shape[0]
    full = np.zeros_like(log_probs)
    if reduction == "none":
        full[np.arange(batch), targets] = -np.asarray(grad).reshape(batch)
    else:
        scale = 1.0 / batch if reduction == "mean" else 1.0
        full[np.arange(batch), targets] = -float(np.asarray(grad).reshape(-1)[0]) * scale
    return (full,)


def _margin_loss_forward(inputs, params, saved, out):
    (logits,) = inputs
    targets, confidence = params["targets"], params["confidence"]
    rows = np.arange(logits.shape[0])
    target_logits = logits[rows, targets]
    masked = logits.copy()
    masked[rows, targets] = -np.inf
    best_other = _refresh(saved, "best_other", masked.argmax(axis=1))
    other_logits = logits[rows, best_other]
    per_sample = other_logits - target_logits
    active = _refresh(saved, "active", per_sample > -confidence)
    return _store(np.asarray(np.where(active, per_sample, -confidence).sum()), out)


def _margin_loss_backward(ctx, grad):
    if not ctx.needs[0]:
        return (None,)
    (logits,) = ctx.inputs
    targets = ctx.params["targets"]
    rows = np.arange(logits.shape[0])
    best_other, active = ctx.saved["best_other"], ctx.saved["active"]
    g = float(np.asarray(grad).reshape(-1)[0])
    full = np.zeros_like(logits)
    full[rows[active], best_other[active]] += g
    full[rows[active], targets[active]] -= g
    return (full,)


def _dropout_forward(inputs, params, saved, out):
    (x,) = inputs
    keep = 1.0 - params["rate"]
    # The mask is redrawn per call, which is why this op is not replayable.
    mask = (params["rng"].random(x.shape) < keep).astype(x.dtype) / keep
    saved["mask"] = mask
    return _store(x * mask, out)


def _dropout_backward(ctx, grad):
    return ((grad * ctx.saved["mask"]) if ctx.needs[0] else None,)


# --------------------------------------------------------------------------- #
# Convolution kernels
# --------------------------------------------------------------------------- #
#: FLOP floor before a batched conv2d computes one im2col-GEMM per sample.
#: This is cache blocking: each sample's unfold stays small enough to stay in
#: cache, which measures faster than one whole-batch GEMM on the BiT and
#: ResNet defenders.  Read at call time, so tests can lower it to band small
#: fixtures; within one process it must stay fixed between recording and
#: replay, because per-sample and whole-batch GEMMs differ in the last bits.
MIN_BAND_FLOPS = 2_000_000


def banded(units: int, flops: int) -> bool:
    """Whether a conv2d call of ``units`` samples computes per-sample bands.

    A pure function of the call's shapes and FLOPs, so the eager pass that
    records a graph and the replays that re-execute it always agree.
    """
    if units < 2:
        return False
    floor = MIN_BAND_FLOPS
    return flops >= floor and flops // units >= max(floor // 32, 1)


def _conv2d_flops(x_shape, w_shape, stride: int, padding: int) -> int:
    from repro.autodiff.conv import _output_size

    n, _, h, w = x_shape
    c_out, c_in, kh, kw = w_shape
    out_h = _output_size(int(h), int(kh), stride, padding)
    out_w = _output_size(int(w), int(kw), stride, padding)
    return 2 * int(n) * int(c_out) * out_h * out_w * int(c_in) * int(kh) * int(kw)


def _conv2d_band_count(inputs, params) -> int:
    """Per-sample band units for a conv2d call (0 = stay whole).

    Batches of two or more that pass :func:`banded` compute one im2col-GEMM
    per sample.  The decision is shapes/FLOPs only — plus a dtype equality
    gate, because the banded kernel computes every band in the common dtype
    via preallocated buffers.  Mixed-dtype calls keep the whole-batch path
    (in eager mode *and* in replays, so recorded values always match).
    """
    x, weight = inputs[0], inputs[1]
    if any(operand.dtype != x.dtype for operand in inputs[1:]):
        return 0
    n = int(x.shape[0])
    flops = _conv2d_flops(x.shape, weight.shape, params["stride"], params["padding"])
    return n if banded(n, flops) else 0


def _conv2d_run_bands(inputs, params, col, out, units) -> None:
    """Compute the ``units`` per-sample bands of a banded conv2d into ``out``.

    Each sample's im2col rows land in its slice of the shared ``col`` matrix
    and its output channels are one im2col-GEMM of its own.
    """
    from repro.autodiff.conv import im2col_into

    x, weight = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    stride, padding = params["stride"], params["padding"]
    c_out, _, kh, kw = weight.shape
    _, _, out_h, out_w = out.shape
    rows = out_h * out_w
    weight_t = weight.reshape(c_out, -1).T
    band = np.empty((rows, c_out), dtype=out.dtype)
    for index in range(units):
        col_rows = col[index * rows : (index + 1) * rows]
        im2col_into(x[index : index + 1], kh, kw, stride, padding, col_rows)
        np.matmul(col_rows, weight_t, out=band)
        if bias is not None:
            band += bias.reshape(1, c_out)
        out[index] = band.reshape(out_h, out_w, c_out).transpose(2, 0, 1)


def _conv2d_forward(inputs, params, saved, out):
    from repro.autodiff.conv import _output_size, im2col

    x, weight = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    stride, padding = params["stride"], params["padding"]
    c_out, _, kh, kw = weight.shape
    n = x.shape[0]
    units = _conv2d_band_count(inputs, params)
    if units:
        out_h = _output_size(x.shape[2], kh, stride, padding)
        out_w = _output_size(x.shape[3], kw, stride, padding)
        shape = (n, c_out, out_h, out_w)
        if (
            out is None
            or out.shape != shape
            or out.dtype != x.dtype
            or not out.flags.c_contiguous
        ):
            out = np.empty(shape, dtype=x.dtype)
        col = saved.get("col")
        col_shape = (n * out_h * out_w, weight.reshape(c_out, -1).shape[1])
        if col is None or col.shape != col_shape or col.dtype != x.dtype:
            col = np.empty(col_shape, dtype=x.dtype)
            saved["col"] = col
        _conv2d_run_bands(inputs, params, col, out, units)
        return out
    new_col, out_h, out_w = im2col(x, kh, kw, stride, padding)
    col = _refresh(saved, "col", new_col)
    weight_matrix = weight.reshape(c_out, -1)
    result = col @ weight_matrix.T
    if bias is not None:
        result = result + bias.reshape(1, c_out)
    return _store(result.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2), out)


def _conv2d_backward(ctx, grad):
    from repro.autodiff.conv import col2im

    x, weight = ctx.inputs[0], ctx.inputs[1]
    bias_needs = ctx.needs[2] if len(ctx.needs) > 2 else False
    stride, padding = ctx.params["stride"], ctx.params["padding"]
    c_out, _, kh, kw = weight.shape
    grad_matrix = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
    # Skip the parameter gradients when they are frozen, as during
    # attack-side input-gradient queries.
    grad_bias = None
    if bias_needs:
        grad_bias = grad_matrix.sum(axis=0).reshape(ctx.inputs[2].shape)
    grad_weight = None
    if ctx.needs[1]:
        grad_weight = (grad_matrix.T @ ctx.saved["col"]).reshape(weight.shape)
    grad_x = None
    if ctx.needs[0]:
        weight_matrix = weight.reshape(c_out, -1)
        units = _conv2d_band_count(ctx.inputs, ctx.params)
        if units == 0 or grad.dtype != weight.dtype:
            grad_col = grad_matrix @ weight_matrix
            grad_x = col2im(grad_col, x.shape, kh, kw, stride, padding)
        else:
            rows = grad.shape[2] * grad.shape[3]
            grad_x = np.empty(x.shape, dtype=grad.dtype)
            sample_shape = (1,) + x.shape[1:]
            for index in range(units):
                grad_col = grad_matrix[index * rows : (index + 1) * rows] @ weight_matrix
                grad_x[index] = col2im(grad_col, sample_shape, kh, kw, stride, padding)[0]
    grads = (grad_x, grad_weight)
    return grads + (grad_bias,) if len(ctx.needs) > 2 else grads


# --------------------------------------------------------------------------- #
# Registrations
# --------------------------------------------------------------------------- #
_BINARY_SAMPLES = (
    GradSample(shapes=((3, 4), (3, 4))),
    GradSample(shapes=((3, 1), (3, 4))),  # broadcast
    GradSample(shapes=((4,), (3, 4))),  # leading broadcast
)

register(Op("add", _add_forward, _add_backward, samples=_BINARY_SAMPLES))
register(Op("sub", _sub_forward, _sub_backward, samples=_BINARY_SAMPLES))
register(Op("mul", _mul_forward, _mul_backward, samples=_BINARY_SAMPLES))
register(
    Op(
        "div",
        _div_forward,
        _div_backward,
        samples=(
            GradSample(shapes=((3, 4), (3, 4)), low=0.5, high=2.0, positive=True),
            GradSample(shapes=((3, 1), (3, 4)), low=0.5, high=2.0, positive=True),
        ),
    )
)
register(
    Op("neg", _neg_forward, _neg_backward, samples=(GradSample(shapes=((3, 4),)),))
)
register(
    Op(
        "pow",
        _pow_forward,
        _pow_backward,
        samples=(
            GradSample(shapes=((3, 4),), params={"power": 2.0}),
            GradSample(shapes=((3, 4),), params={"power": 3.0}, low=0.5, high=2.0, positive=True),
        ),
    )
)
register(
    Op(
        "matmul",
        _matmul_forward,
        _matmul_backward,
        cost=_matmul_cost,
        samples=(
            GradSample(shapes=((3, 4), (4, 5))),
            GradSample(shapes=((2, 3, 4), (4, 5))),  # batched lhs broadcast
        ),
    )
)
register(
    Op("exp", _exp_forward, _exp_backward, samples=(GradSample(shapes=((3, 4),)),))
)
register(
    Op(
        "log",
        _log_forward,
        _log_backward,
        samples=(GradSample(shapes=((3, 4),), low=0.5, high=3.0, positive=True),),
    )
)
register(
    Op(
        "sqrt",
        _sqrt_forward,
        _sqrt_backward,
        samples=(GradSample(shapes=((3, 4),), low=0.5, high=3.0, positive=True),),
    )
)
register(
    Op("tanh", _tanh_forward, _tanh_backward, samples=(GradSample(shapes=((3, 4),)),))
)
register(
    Op(
        "abs",
        _abs_forward,
        _abs_backward,
        samples=(GradSample(shapes=((3, 4),), low=0.25, high=2.0, positive=True),),
    )
)
register(
    Op(
        "maximum",
        _maximum_forward,
        _maximum_backward,
        samples=(GradSample(shapes=((3, 4),), params={"value": 0.1}),),
    )
)
register(
    Op(
        "minimum",
        _minimum_forward,
        _minimum_backward,
        samples=(GradSample(shapes=((3, 4),), params={"value": 0.1}),),
    )
)
register(
    Op(
        "sum",
        _sum_forward,
        _sum_backward,
        samples=(
            GradSample(shapes=((3, 4),), params={"axis": None, "keepdims": False}),
            GradSample(shapes=((3, 4),), params={"axis": 1, "keepdims": False}),
            GradSample(shapes=((2, 3, 4),), params={"axis": 0, "keepdims": True}),
        ),
    )
)
register(
    Op(
        "mean",
        _mean_forward,
        _mean_backward,
        samples=(
            GradSample(shapes=((3, 4),), params={"axis": None, "keepdims": False}),
            GradSample(shapes=((2, 3, 4),), params={"axis": (1, 2), "keepdims": True}),
            GradSample(shapes=((3, 4),), params={"axis": -1, "keepdims": True}),
        ),
    )
)
register(
    Op(
        "max",
        _max_forward,
        _max_backward,
        samples=(
            GradSample(shapes=((3, 4),), params={"axis": None, "keepdims": False}),
            GradSample(shapes=((3, 4),), params={"axis": 1, "keepdims": False}),
        ),
    )
)
register(
    Op(
        "reshape",
        _reshape_forward,
        _reshape_backward,
        cost=_view_cost,
        samples=(GradSample(shapes=((3, 4),), params={"shape": (2, 6)}),),
    )
)
register(
    Op(
        "transpose",
        _transpose_forward,
        _transpose_backward,
        cost=_view_cost,
        samples=(
            GradSample(
                shapes=((2, 3, 4),), params={"axes": (2, 0, 1), "inverse": (1, 2, 0)}
            ),
        ),
    )
)
register(
    Op(
        "getitem",
        _getitem_forward,
        _getitem_backward,
        cost=_getitem_cost,
        samples=(
            GradSample(shapes=((4, 5),), params={"index": (slice(None), 2)}),
            GradSample(shapes=((4, 5),), params={"index": np.array([0, 2, 2])}),
        ),
    )
)
register(
    Op(
        "pad",
        _pad_forward,
        _pad_backward,
        samples=(GradSample(shapes=((2, 3),), params={"pad_width": ((1, 1), (0, 2))}),),
    )
)
register(
    Op(
        "concat",
        _concat_forward,
        _concat_backward,
        samples=(GradSample(shapes=((2, 3), (4, 3), (1, 3)), params={"axis": 0}),),
    )
)
register(
    Op(
        "stack",
        _stack_forward,
        _stack_backward,
        samples=(GradSample(shapes=((2, 3), (2, 3)), params={"axis": 1}),),
    )
)
register(
    Op(
        "relu",
        _relu_forward,
        _relu_backward,
        samples=(GradSample(shapes=((3, 4),), low=0.25, high=2.0, positive=True),),
    )
)
register(
    Op(
        "sigmoid",
        _sigmoid_forward,
        _sigmoid_backward,
        samples=(GradSample(shapes=((3, 4),)),),
    )
)
register(
    Op(
        "gelu",
        _gelu_forward,
        _gelu_backward,
        samples=(GradSample(shapes=((3, 4),)),),
    )
)
register(
    Op(
        "softmax",
        _softmax_forward,
        _softmax_backward,
        samples=(GradSample(shapes=((3, 5),), params={"axis": -1}),),
    )
)
register(
    Op(
        "log_softmax",
        _log_softmax_forward,
        _log_softmax_backward,
        samples=(GradSample(shapes=((3, 5),), params={"axis": -1}),),
    )
)
register(
    Op(
        "nll_loss",
        _nll_loss_forward,
        _nll_loss_backward,
        samples=(
            GradSample(
                shapes=((3, 5),),
                params={"targets": np.array([0, 4, 2]), "reduction": "mean"},
            ),
            GradSample(
                shapes=((3, 5),),
                params={"targets": np.array([1, 1, 3]), "reduction": "sum"},
            ),
            GradSample(
                shapes=((3, 5),),
                params={"targets": np.array([2, 0, 1]), "reduction": "none"},
            ),
        ),
    )
)
register(
    Op(
        "margin_loss",
        _margin_loss_forward,
        _margin_loss_backward,
        samples=(
            GradSample(
                shapes=((3, 5),), params={"targets": np.array([0, 4, 2]), "confidence": 0.0}
            ),
        ),
    )
)
register(
    Op(
        "dropout",
        _dropout_forward,
        _dropout_backward,
        replayable=False,
        gradcheck_skip="stochastic: the mask is redrawn on every forward evaluation",
    )
)
register(
    Op(
        "conv2d",
        _conv2d_forward,
        _conv2d_backward,
        cost=_conv2d_cost,
        samples=(
            GradSample(shapes=((2, 3, 5, 5), (4, 3, 3, 3)), params={"stride": 1, "padding": 0}),
            GradSample(
                shapes=((1, 2, 6, 6), (3, 2, 3, 3), (3,)), params={"stride": 2, "padding": 1}
            ),
            # Batch of three with a bias: exercises per-sample bands under a
            # forced low FLOP floor.
            GradSample(
                shapes=((3, 2, 7, 7), (3, 2, 3, 3), (3,)), params={"stride": 1, "padding": 1}
            ),
        ),
    )
)
