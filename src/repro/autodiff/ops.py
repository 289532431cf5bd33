"""Declarative op registry: the single code path every autodiff op goes through.

Historically each operation hand-rolled an inline ``forward_fn``/``backward_fn``
closure pair at its call site — ~60 of them scattered across ``tensor.py``,
``functional.py`` and ``conv.py``.  This module makes ops first-class
declarative objects instead:

* an :class:`Op` bundles the op's name, its forward kernel (with ``out=``
  support so pooled buffers and fused replays can write in place), its
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

import functools
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.autodiff import profiler as _profiler
from repro.autodiff import sharding as _sharding
from repro.autodiff.pool import active_buffer_pool
from repro.autodiff.tensor import Tensor, get_default_dtype, unbroadcast

__all__ = [
    "GradSample",
    "Op",
    "OpCall",
    "apply",
    "elementwise_ops",
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
    #: Pure elementwise kernel (broadcasting allowed): eligible for buffer
    #: pooling in eager mode and chain fusion in captured replays.
    elementwise: bool = False
    #: Whether a recorded node of this op can be replayed (dropout cannot:
    #: it redraws its mask per call).
    replayable: bool = True
    #: Whether the kernel may run concurrently with other replay steps.  All
    #: current kernels are pure functions of their operands, so every
    #: registered op is safe; flip this for an op that touches process-wide
    #: state and the wave planner gives its steps a singleton barrier wave.
    concurrency_safe: bool = True
    #: Output rows depend only on the matching operand rows, so the op can
    #: split along the batch axis in parallel replays.  True for saved-free
    #: elementwise ufuncs (sharded inside fused chains) and for the heavy
    #: kernels that define ``forward_shard`` below.  Elementwise ops that
    #: refresh ``saved`` buffers in their forward (gelu) must stay unsharded.
    shardable: bool = False
    #: ``(in_shapes, out_shape, params, itemsize) -> int``: how many canonical
    #: band units this call's output splits into along the batch axis, or 0
    #: when the call replays whole.  Must agree with the banding the forward
    #: kernel applies (a pure function of shapes/FLOPs — see
    #: :mod:`repro.autodiff.sharding`).
    shard_units: Callable | None = None
    #: ``(inputs, params, saved, out, start, stop)``: compute band units
    #: ``[start, stop)`` into the matching slices of ``out`` (and of any
    #: recorded ``saved`` buffers).  Units from any partition of the band
    #: range compose to a byte-identical full result.
    forward_shard: Callable | None = None
    #: ``(ctx, grad, runner) -> grads``: backward kernel distributing its
    #: band-parallel pieces over a :class:`~repro.autodiff.sharding.ShardRunner`.
    #: Must be byte-identical to ``backward``; picked up only during replays
    #: with an active runner.
    backward_shard: Callable | None = None
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
    layer (fusion) and the profiler access to the kernel, its parameters and
    its saved record-time buffers.
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


def elementwise_ops() -> tuple[str, ...]:
    """Names of the fusable elementwise kernels."""
    return tuple(sorted(name for name, op in REGISTRY.items() if op.elementwise))


def _acquire_pooled_out(op: Op, arrays: tuple[np.ndarray, ...]) -> np.ndarray | None:
    """A pooled ``out=`` buffer for an elementwise kernel, when safe.

    Pooling only engages when the kernel's natural result dtype survives the
    :class:`Tensor` constructor unchanged — mixing dtypes must keep today's
    compute-then-cast semantics bit-for-bit.
    """
    pool = active_buffer_pool()
    if pool is None or not op.elementwise:
        return None
    dtype = arrays[0].dtype if len(arrays) == 1 else np.result_type(*arrays)
    if dtype != get_default_dtype():
        return None
    try:
        shape = np.broadcast_shapes(*(array.shape for array in arrays))
    except ValueError:
        return None
    return pool.acquire(shape, dtype)


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
    out = _acquire_pooled_out(op, arrays)
    if profiler is not None:
        started = time.perf_counter()
        data = op.forward(arrays, params, call.saved, out)
        elapsed = time.perf_counter() - started
        flops, moved = op.cost_of(
            tuple(array.shape for array in arrays), data.shape, params, data.dtype.itemsize
        )
        profiler.record(op.name, elapsed, flops, moved)
    else:
        data = op.forward(arrays, params, call.saved, out)
    requires_grad = any(tensor.requires_grad for tensor in tensors)
    node = Tensor(data, requires_grad=requires_grad, parents=tensors, op=op.name)
    call.output = node
    if node.requires_grad and op.backward is not None:

        def backward_fn(grad: np.ndarray) -> None:
            # Parallel replays activate a shard runner (thread-local) around
            # the backward sweep; ops with a sharded backward fan their band
            # loops out over it — byte-identical to the serial kernel.
            runner = _sharding.active_runner() if op.backward_shard is not None else None
            if runner is not None:
                grads = op.backward_shard(call, grad, runner)
            else:
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


def _pool_cost(in_shapes, out_shape, params, itemsize):
    kernel = int(params["kernel"])
    flops = _prod(out_shape) * kernel * kernel
    moved = (_prod(in_shapes[0]) + _prod(out_shape)) * itemsize
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


def _matmul_band_count(a_shape, b_shape) -> int:
    """Canonical band units of ``a @ b`` along the leading axis (0 = whole).

    2-D matmuls band in :data:`~repro.autodiff.sharding.MATMUL_BAND_ROWS`-row
    groups (per-row bands would degrade the GEMM into GEMVs); stacked
    operands (``a.ndim >= 3``) band per leading-axis sample, each band a full
    GEMM.  ``b`` must be 2-D (shared rhs) or stacked alongside ``a`` —
    anything fancier stays whole.  Deterministic in shapes/FLOPs only.
    """
    flops = 2 * _prod(a_shape) * int(b_shape[-1])
    if len(a_shape) == 2 and len(b_shape) == 2:
        units = -(-int(a_shape[0]) // _sharding.MATMUL_BAND_ROWS)
    elif len(a_shape) >= 3 and (
        len(b_shape) == 2
        or (len(b_shape) == len(a_shape) and b_shape[0] == a_shape[0])
    ):
        units = int(a_shape[0])
    else:
        return 0
    return units if _sharding.banded(units, flops) else 0


def _matmul_run_bands(a, b, out, start, stop) -> None:
    """Compute band units ``[start, stop)`` of a banded matmul into ``out``.

    Every band is its own ``np.matmul`` call whatever the span grouping, so
    any partition of the band range composes to byte-identical output.
    """
    if a.ndim == 2:
        rows = out.shape[0]
        for band in range(start, stop):
            r0 = band * _sharding.MATMUL_BAND_ROWS
            r1 = min(r0 + _sharding.MATMUL_BAND_ROWS, rows)
            np.matmul(a[r0:r1], b, out=out[r0:r1])
        return
    stacked_b = b.ndim == a.ndim
    for index in range(start, stop):
        np.matmul(a[index], b[index] if stacked_b else b, out=out[index])


def _banded_matmul(a, b, runner=None):
    """``a @ b`` through the canonical banding rule (shared by fwd and bwd).

    With ``runner`` set (a parallel replay's backward sweep), the band loop
    fans out over the replay executor; the result is byte-identical either
    way because shard spans only group whole canonical bands.
    """
    units = _matmul_band_count(a.shape, b.shape)
    if units == 0:
        return np.matmul(a, b)
    result = np.empty(a.shape[:-1] + (b.shape[-1],), dtype=np.result_type(a, b))
    if runner is None or units < 2:
        _matmul_run_bands(a, b, result, 0, units)
        return result
    flops = 2 * _prod(a.shape) * int(b.shape[-1])
    moved = (a.size + b.size + result.size) * result.itemsize
    runner.map_bands(
        units,
        _sharding.modeled_seconds(flops, moved),
        functools.partial(_matmul_run_bands, a, b, result),
        name="matmul_grad_sharded",
    )
    return result


def _matmul_grad_b(a, grad, b, runner=None):
    """Gradient w.r.t. the rhs: ``aᵀ @ grad`` reduced across the band axis.

    Unlike ``grad_a`` (whose output rows are the band axis), every band of
    ``a``/``grad`` contributes to *every* element of ``grad_b`` — so banding
    it means per-band partial GEMMs combined through the fixed binary tree
    (:func:`repro.autodiff.sharding.reduce_bands`).  The gate is the same
    canonical banding rule as the forward, applied in eager and replayed
    sweeps alike, so gradients agree byte for byte at any shard/thread
    count.  Stacked rhs operands (``b.ndim >= 3``) have no cross-batch
    reduction, and deeply stacked lhs operands would need a second nested
    reduction — both keep the classic whole kernel.
    """
    units = _matmul_band_count(a.shape, b.shape)
    if units == 0 or b.ndim != 2 or a.ndim > 3 or a.dtype != grad.dtype:
        return unbroadcast(np.matmul(np.swapaxes(a, -1, -2), grad), b.shape)
    out = np.empty(b.shape, dtype=np.result_type(a, grad))
    if a.ndim == 2:
        rows = a.shape[0]

        def partial(band: int, slab: np.ndarray) -> None:
            r0 = band * _sharding.MATMUL_BAND_ROWS
            r1 = min(r0 + _sharding.MATMUL_BAND_ROWS, rows)
            np.matmul(a[r0:r1].T, grad[r0:r1], out=slab)

    else:

        def partial(band: int, slab: np.ndarray) -> None:
            np.matmul(a[band].T, grad[band], out=slab)

    flops = 2 * _prod(a.shape) * int(b.shape[-1])
    # Price the partial-slab traffic (units written, then re-read by the
    # tree combine) so the shard decision sees the reduction's true cost.
    moved = a.nbytes + grad.nbytes + (2 * units + 1) * out.nbytes
    _sharding.reduce_bands(
        units,
        _sharding.modeled_seconds(flops, moved),
        partial,
        out,
        runner=runner,
        name="matmul",
    )
    return out


def _matmul_shard_units(in_shapes, out_shape, params, itemsize):
    return _matmul_band_count(in_shapes[0], in_shapes[1])


def _matmul_forward(inputs, params, saved, out):
    a, b = inputs
    units = _matmul_band_count(a.shape, b.shape)
    if units == 0:
        return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)
    shape = a.shape[:-1] + (b.shape[-1],)
    dtype = np.result_type(a, b)
    if out is None or out.shape != shape or out.dtype != dtype:
        out = np.empty(shape, dtype=dtype)
    _matmul_run_bands(a, b, out, 0, units)
    return out


def _matmul_forward_shard(inputs, params, saved, out, start, stop):
    a, b = inputs
    _matmul_run_bands(a, b, out, start, stop)


def _matmul_backward(ctx, grad, runner=None):
    a, b = ctx.inputs
    needs = ctx.needs
    # Each operand's gradient is a full matmul; skip the ones nobody will
    # read (e.g. frozen parameters during attack queries).  grad_a routes
    # through the canonical banding rule (its lhs rows are the batch axis);
    # grad_b reduces *across* the batch — banded calls compute per-band
    # partials combined through the fixed tree reduce.
    grad_a = grad_b = None
    if needs[0]:
        grad_a = unbroadcast(_banded_matmul(grad, np.swapaxes(b, -1, -2), runner), a.shape)
    if needs[1]:
        grad_b = _matmul_grad_b(a, grad, b, runner)
    return (grad_a, grad_b)


def _matmul_backward_shard(ctx, grad, runner):
    return _matmul_backward(ctx, grad, runner)


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
# Convolution / pooling kernels (previously in conv.py closures)
# --------------------------------------------------------------------------- #
def _conv2d_flops(x_shape, w_shape, stride: int, padding: int) -> int:
    from repro.autodiff.conv import _output_size

    n, _, h, w = x_shape
    c_out, c_in, kh, kw = w_shape
    out_h = _output_size(int(h), int(kh), stride, padding)
    out_w = _output_size(int(w), int(kw), stride, padding)
    return 2 * int(n) * int(c_out) * out_h * out_w * int(c_in) * int(kh) * int(kw)


def _conv2d_spatial_units(x_shape, w_shape, params) -> int:
    """Output-row band units for a batch-1 conv2d (0 = stay whole).

    When the batch axis is a single sample there is nothing to band over, so
    the fallback axis is H: groups of :data:`~repro.autodiff.sharding.
    SPATIAL_BAND_ROWS` output rows, each unfolded with its own halo-carrying
    input window.  Same shapes/FLOPs gate as sample banding.
    """
    from repro.autodiff.conv import _output_size

    out_h = _output_size(int(x_shape[2]), int(w_shape[2]), params["stride"], params["padding"])
    units = -(-out_h // _sharding.SPATIAL_BAND_ROWS)
    flops = _conv2d_flops(x_shape, w_shape, params["stride"], params["padding"])
    return units if _sharding.banded(units, flops) else 0


def _conv2d_band_count(inputs, params) -> int:
    """Canonical band units for a conv2d call (0 = stay whole).

    Batches of two or more band per *sample*; a single-sample batch falls
    back to *spatial* (output-row) bands.  Like matmul banding, the decision
    is shapes/FLOPs only — plus a dtype equality gate, because the banded
    kernel computes every band in the common dtype via preallocated buffers.
    Mixed-dtype calls keep the classic whole-batch path (in eager mode *and*
    in replays, so recorded values always match).
    """
    x, weight = inputs[0], inputs[1]
    if any(operand.dtype != x.dtype for operand in inputs[1:]):
        return 0
    n = int(x.shape[0])
    if n < 2:
        return _conv2d_spatial_units(x.shape, weight.shape, params)
    flops = _conv2d_flops(x.shape, weight.shape, params["stride"], params["padding"])
    return n if _sharding.banded(n, flops) else 0


def _conv2d_run_bands(inputs, params, col, out, start, stop) -> None:
    """Compute band units ``[start, stop)`` of a banded conv2d into ``out``.

    For batches of two or more, each sample is one canonical band: its
    im2col rows land in the shared ``col`` matrix (disjoint slices,
    race-free) and its output channels are one im2col-GEMM of its own, so
    any contiguous grouping of samples is byte-identical to any other.
    Batch-1 calls dispatch to the spatial (output-row) band kernel instead.
    """
    from repro.autodiff.conv import im2col_into

    x, weight = inputs[0], inputs[1]
    if x.shape[0] == 1:
        _conv2d_run_spatial_bands(inputs, params, col, out, start, stop)
        return
    bias = inputs[2] if len(inputs) > 2 else None
    stride, padding = params["stride"], params["padding"]
    c_out, _, kh, kw = weight.shape
    _, _, out_h, out_w = out.shape
    rows = out_h * out_w
    weight_t = weight.reshape(c_out, -1).T
    pool = _sharding.scratch_pool()
    band = pool.take((rows, c_out), out.dtype)
    for index in range(start, stop):
        col_rows = col[index * rows : (index + 1) * rows]
        im2col_into(x[index : index + 1], kh, kw, stride, padding, col_rows)
        np.matmul(col_rows, weight_t, out=band)
        if bias is not None:
            band += bias.reshape(1, c_out)
        out[index] = band.reshape(out_h, out_w, c_out).transpose(2, 0, 1)
    pool.release(band)


def _conv2d_run_spatial_bands(inputs, params, col, out, start, stop) -> None:
    """Compute output-row bands ``[start, stop)`` of a batch-1 banded conv2d.

    Each band unfolds its halo-carrying input window into its own rows of
    the shared ``col`` matrix (im2col is pure copies, so the assembled
    matrix is byte-identical to the whole unfold) and runs one GEMM of its
    own — the per-band GEMM is what makes batch-1 values canonical, exactly
    as per-sample GEMMs do for real batches.
    """
    from repro.autodiff.conv import im2col_into

    x, weight = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    stride, padding = params["stride"], params["padding"]
    c_out, _, kh, kw = weight.shape
    _, _, out_h, out_w = out.shape
    weight_t = weight.reshape(c_out, -1).T
    pool = _sharding.scratch_pool()
    for band in range(start, stop):
        r0 = band * _sharding.SPATIAL_BAND_ROWS
        r1 = min(r0 + _sharding.SPATIAL_BAND_ROWS, out_h)
        col_rows = col[r0 * out_w : r1 * out_w]
        im2col_into(x, kh, kw, stride, padding, col_rows, row_start=r0, row_stop=r1)
        band_out = pool.take((col_rows.shape[0], c_out), out.dtype)
        np.matmul(col_rows, weight_t, out=band_out)
        if bias is not None:
            band_out += bias.reshape(1, c_out)
        out[0, :, r0:r1, :] = band_out.reshape(r1 - r0, out_w, c_out).transpose(2, 0, 1)
        pool.release(band_out)


def _conv2d_shard_units(in_shapes, out_shape, params, itemsize):
    n = int(in_shapes[0][0])
    if n < 2:
        return _conv2d_spatial_units(in_shapes[0], in_shapes[1], params)
    flops = _conv2d_flops(in_shapes[0], in_shapes[1], params["stride"], params["padding"])
    return n if _sharding.banded(n, flops) else 0


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
        # Eager calls inside an active runner scope (the serving gateway's
        # stage loop) fan the band loop out; values are fixed by the
        # canonical banding either way.
        runner = _sharding.active_runner()
        if runner is None:
            _conv2d_run_bands(inputs, params, col, out, 0, units)
        else:
            flops = _conv2d_flops(x.shape, weight.shape, stride, padding)
            moved = (x.size + weight.size + out.size) * out.itemsize
            runner.map_bands(
                units,
                _sharding.modeled_seconds(flops, moved),
                functools.partial(_conv2d_run_bands, inputs, params, col, out),
                name="conv2d_spatial" if n == 1 else "conv2d_sharded",
            )
        return out
    new_col, out_h, out_w = im2col(x, kh, kw, stride, padding)
    col = _refresh(saved, "col", new_col)
    weight_matrix = weight.reshape(c_out, -1)
    result = col @ weight_matrix.T
    if bias is not None:
        result = result + bias.reshape(1, c_out)
    return _store(result.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2), out)


def _conv2d_forward_shard(inputs, params, saved, out, start, stop):
    _conv2d_run_bands(inputs, params, saved["col"], out, start, stop)


def _conv2d_col_span(band: int, n: int, out_h: int, out_w: int) -> tuple[int, int]:
    """The ``col``/``grad_matrix`` row span one canonical band covers.

    Samples are the band axis for real batches; batch-1 calls band over
    output-row groups, matching the forward's spatial banding exactly.
    """
    if n == 1:
        r0 = band * _sharding.SPATIAL_BAND_ROWS
        r1 = min(r0 + _sharding.SPATIAL_BAND_ROWS, out_h)
        return r0 * out_w, r1 * out_w
    rows = out_h * out_w
    return band * rows, (band + 1) * rows


def _conv2d_backward(ctx, grad, runner=None):
    from repro.autodiff.conv import col2im

    x, weight = ctx.inputs[0], ctx.inputs[1]
    bias_needs = ctx.needs[2] if len(ctx.needs) > 2 else False
    stride, padding = ctx.params["stride"], ctx.params["padding"]
    c_out, _, kh, kw = weight.shape
    col = ctx.saved["col"]
    grad_matrix = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
    n = x.shape[0]
    out_h, out_w = grad.shape[2], grad.shape[3]
    units = _conv2d_band_count(ctx.inputs, ctx.params)
    # grad_weight and grad_bias reduce *across* the band axis: every band
    # contributes to every output element, so banded calls compute per-band
    # partials into pooled slabs and combine them through the fixed binary
    # tree (reduce_bands).  The gate is the same canonical banding rule as
    # the forward, applied in eager and replayed sweeps alike.  Skip both
    # when the parameters are frozen, as during attack-side input-gradient
    # queries.
    reduce_units = 0 if grad.dtype != weight.dtype else units
    grad_bias = None
    if bias_needs:
        bias = ctx.inputs[2]
        if reduce_units:
            flat_bias = np.empty((c_out,), dtype=grad.dtype)

            def bias_partial(band: int, slab: np.ndarray) -> None:
                s0, s1 = _conv2d_col_span(band, n, out_h, out_w)
                np.sum(grad_matrix[s0:s1], axis=0, out=slab)

            _sharding.reduce_bands(
                reduce_units,
                _sharding.modeled_seconds(grad_matrix.size, 2 * grad_matrix.nbytes),
                bias_partial,
                flat_bias,
                runner=runner,
            )
            grad_bias = flat_bias.reshape(bias.shape)
        else:
            grad_bias = grad_matrix.sum(axis=0).reshape(bias.shape)
    grad_weight = None
    if ctx.needs[1]:
        if reduce_units:
            flat_weight = np.empty((c_out, col.shape[1]), dtype=grad.dtype)

            def weight_partial(band: int, slab: np.ndarray) -> None:
                s0, s1 = _conv2d_col_span(band, n, out_h, out_w)
                np.matmul(grad_matrix[s0:s1].T, col[s0:s1], out=slab)

            flops = 2 * grad_matrix.shape[0] * c_out * col.shape[1]
            moved = (
                grad_matrix.nbytes
                + col.nbytes
                + (2 * reduce_units + 1) * flat_weight.nbytes
            )
            _sharding.reduce_bands(
                reduce_units,
                _sharding.modeled_seconds(flops, moved),
                weight_partial,
                flat_weight,
                runner=runner,
                name="conv2d",
            )
            grad_weight = flat_weight.reshape(weight.shape)
        else:
            grad_weight = (grad_matrix.T @ col).reshape(weight.shape)
    grad_x = None
    if ctx.needs[0]:
        weight_matrix = weight.reshape(c_out, -1)
        # Spatial (batch-1) bands overlap through their halos under col2im's
        # accumulation, so batch-1 grad_x stays whole: spatial banding is a
        # forward/reduction axis only.
        if units == 0 or grad.dtype != weight.dtype or n < 2:
            grad_col = grad_matrix @ weight_matrix
            grad_x = col2im(grad_col, x.shape, kh, kw, stride, padding)
        else:
            rows = out_h * out_w
            grad_x = np.empty(x.shape, dtype=grad.dtype)
            sample_shape = (1,) + x.shape[1:]

            def run_bands(start: int, stop: int) -> None:
                for index in range(start, stop):
                    grad_col = grad_matrix[index * rows : (index + 1) * rows] @ weight_matrix
                    grad_x[index] = col2im(grad_col, sample_shape, kh, kw, stride, padding)[0]

            if runner is None:
                run_bands(0, units)
            else:
                flops = _conv2d_flops(x.shape, weight.shape, stride, padding)
                moved = (grad.size + weight.size + grad_x.size) * grad.itemsize
                runner.map_bands(
                    units,
                    _sharding.modeled_seconds(flops, moved),
                    run_bands,
                    name="conv2d_grad_sharded",
                )
    grads = (grad_x, grad_weight)
    return grads + (grad_bias,) if len(ctx.needs) > 2 else grads


def _conv2d_backward_shard(ctx, grad, runner):
    return _conv2d_backward(ctx, grad, runner)


def _max_pool2d_forward(inputs, params, saved, out):
    from repro.autodiff.conv import im2col

    (x,) = inputs
    kernel, stride = params["kernel"], params["stride"]
    n, c, _, _ = x.shape
    new_col, out_h, out_w = im2col(x, kernel, kernel, stride, 0)
    new_col = new_col.reshape(-1, c, kernel * kernel)
    # The backward routes gradients through ``argmax``; refresh it in place
    # to match the replayed forward pass.
    _refresh(saved, "argmax", new_col.argmax(axis=2))
    return _store(new_col.max(axis=2).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2), out)


def _pool_spatial_window(out_h: int, start: int, stop: int) -> tuple[int, int]:
    """Output rows covered by spatial band units ``[start, stop)``."""
    r0 = start * _sharding.SPATIAL_BAND_ROWS
    r1 = min(stop * _sharding.SPATIAL_BAND_ROWS, out_h)
    return r0, r1


def _max_pool2d_forward_shard(inputs, params, saved, out, start, stop):
    """Band units ``[start, stop)`` of a max pool, writing the recorded slices.

    Pooling is row-independent — im2col rows are pure copies and argmax/max
    reduce within a row — so any band grouping (samples for real batches,
    output-row windows for batch 1) is byte-identical to the whole-batch
    kernel; no eager canonicalization is needed.
    """
    from repro.autodiff.conv import im2col_into

    (x,) = inputs
    kernel, stride = params["kernel"], params["stride"]
    c = x.shape[1]
    _, _, out_h, out_w = out.shape
    pool = _sharding.scratch_pool()
    if x.shape[0] == 1:
        r0, r1 = _pool_spatial_window(out_h, start, stop)
        col = pool.take(((r1 - r0) * out_w, c * kernel * kernel), x.dtype)
        im2col_into(x, kernel, kernel, stride, 0, col, row_start=r0, row_stop=r1)
        col3 = col.reshape(-1, c, kernel * kernel)
        saved["argmax"][r0 * out_w : r1 * out_w] = col3.argmax(axis=2)
        out[0, :, r0:r1, :] = col3.max(axis=2).reshape(r1 - r0, out_w, c).transpose(2, 0, 1)
        pool.release(col)
        return
    rows = out_h * out_w
    col = pool.take(((stop - start) * rows, c * kernel * kernel), x.dtype)
    im2col_into(x[start:stop], kernel, kernel, stride, 0, col)
    col3 = col.reshape(-1, c, kernel * kernel)
    saved["argmax"][start * rows : stop * rows] = col3.argmax(axis=2)
    out[start:stop] = col3.max(axis=2).reshape(stop - start, out_h, out_w, c).transpose(0, 3, 1, 2)
    pool.release(col)


def _max_pool2d_grad_bands(ctx, grad, grad_x, start, stop) -> None:
    from repro.autodiff.conv import col2im

    (x,) = ctx.inputs
    kernel, stride = ctx.params["kernel"], ctx.params["stride"]
    c = x.shape[1]
    rows_per_sample = grad.shape[2] * grad.shape[3]
    argmax = ctx.saved["argmax"][start * rows_per_sample : stop * rows_per_sample]
    grad_flat = grad[start:stop].transpose(0, 2, 3, 1).reshape(-1, c)
    grad_col = np.zeros((grad_flat.shape[0], c, kernel * kernel), dtype=grad.dtype)
    rows = np.arange(grad_flat.shape[0])[:, None]
    cols = np.arange(c)[None, :]
    grad_col[rows, cols, argmax] = grad_flat
    grad_col = grad_col.reshape(grad_flat.shape[0], c * kernel * kernel)
    grad_x[start:stop] = col2im(
        grad_col, (stop - start,) + x.shape[1:], kernel, kernel, stride, 0
    )


def _max_pool2d_backward(ctx, grad, runner=None):
    if not ctx.needs[0]:
        return (None,)
    return (_pool_backward_bands(ctx, grad, _max_pool2d_grad_bands, runner, "max_pool2d"),)


def _max_pool2d_backward_shard(ctx, grad, runner):
    return _max_pool2d_backward(ctx, grad, runner)


def _avg_pool2d_forward(inputs, params, saved, out):
    from repro.autodiff.conv import im2col

    (x,) = inputs
    kernel, stride = params["kernel"], params["stride"]
    n, c, _, _ = x.shape
    new_col, out_h, out_w = im2col(x, kernel, kernel, stride, 0)
    new_col = new_col.reshape(-1, c, kernel * kernel)
    return _store(new_col.mean(axis=2).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2), out)


def _avg_pool2d_forward_shard(inputs, params, saved, out, start, stop):
    from repro.autodiff.conv import im2col_into

    (x,) = inputs
    kernel, stride = params["kernel"], params["stride"]
    c = x.shape[1]
    _, _, out_h, out_w = out.shape
    pool = _sharding.scratch_pool()
    if x.shape[0] == 1:
        r0, r1 = _pool_spatial_window(out_h, start, stop)
        col = pool.take(((r1 - r0) * out_w, c * kernel * kernel), x.dtype)
        im2col_into(x, kernel, kernel, stride, 0, col, row_start=r0, row_stop=r1)
        col3 = col.reshape(-1, c, kernel * kernel)
        out[0, :, r0:r1, :] = col3.mean(axis=2).reshape(r1 - r0, out_w, c).transpose(2, 0, 1)
        pool.release(col)
        return
    rows = out_h * out_w
    col = pool.take(((stop - start) * rows, c * kernel * kernel), x.dtype)
    im2col_into(x[start:stop], kernel, kernel, stride, 0, col)
    col3 = col.reshape(-1, c, kernel * kernel)
    out[start:stop] = col3.mean(axis=2).reshape(stop - start, out_h, out_w, c).transpose(0, 3, 1, 2)
    pool.release(col)


def _avg_pool2d_grad_bands(ctx, grad, grad_x, start, stop) -> None:
    from repro.autodiff.conv import col2im

    (x,) = ctx.inputs
    kernel, stride = ctx.params["kernel"], ctx.params["stride"]
    c = x.shape[1]
    grad_flat = grad[start:stop].transpose(0, 2, 3, 1).reshape(-1, c)
    grad_col = np.repeat(grad_flat[:, :, None], kernel * kernel, axis=2) / (kernel * kernel)
    grad_col = grad_col.reshape(grad_flat.shape[0], c * kernel * kernel)
    grad_x[start:stop] = col2im(
        grad_col, (stop - start,) + x.shape[1:], kernel, kernel, stride, 0
    )


def _avg_pool2d_backward(ctx, grad, runner=None):
    if not ctx.needs[0]:
        return (None,)
    return (_pool_backward_bands(ctx, grad, _avg_pool2d_grad_bands, runner, "avg_pool2d"),)


def _avg_pool2d_backward_shard(ctx, grad, runner):
    return _avg_pool2d_backward(ctx, grad, runner)


def _pool_backward_bands(ctx, grad, band_fn, runner, op_name: str) -> np.ndarray:
    """Run a pool backward over sample spans, fanning out when a runner is set.

    The per-span scatter + col2im touches each sample independently with the
    same inner loop order as the whole-batch version, so the result is
    byte-identical at any span grouping — runner or not.
    """
    (x,) = ctx.inputs
    n = x.shape[0]
    grad_x = np.empty(x.shape, dtype=grad.dtype)
    fn = functools.partial(band_fn, ctx, grad, grad_x)
    if runner is None or n < 2:
        fn(0, n)
        return grad_x
    kernel = int(ctx.params["kernel"])
    flops = grad.size * kernel * kernel
    moved = (x.size + grad.size + grad_x.size) * grad.itemsize
    runner.map_bands(
        n, _sharding.modeled_seconds(flops, moved), fn, name=f"{op_name}_grad_sharded"
    )
    return grad_x


def _pool_shard_units(in_shapes, out_shape, params, itemsize):
    """Pools band per sample whenever the modeled step is worth splitting.

    Unlike conv/matmul there is no eager canonicalization to stay consistent
    with — pooling is bitwise stable under any grouping — so the gate is
    purely a cost threshold.  Single-sample batches fall back to spatial
    (output-row) band units, like conv2d.
    """
    n = int(in_shapes[0][0])
    if n >= 2:
        units = n
    else:
        units = -(-int(out_shape[2]) // _sharding.SPATIAL_BAND_ROWS)
        if units < 2:
            return 0
    flops, moved = _pool_cost(in_shapes, out_shape, params, itemsize)
    if _sharding.banded(units, flops):
        return units
    if _sharding.modeled_seconds(flops, moved) < 2 * _sharding.MIN_SHARD_SECONDS:
        return 0
    return units


# --------------------------------------------------------------------------- #
# Registrations
# --------------------------------------------------------------------------- #
_BINARY_SAMPLES = (
    GradSample(shapes=((3, 4), (3, 4))),
    GradSample(shapes=((3, 1), (3, 4))),  # broadcast
    GradSample(shapes=((4,), (3, 4))),  # leading broadcast
)

register(Op("add", _add_forward, _add_backward, elementwise=True, shardable=True, samples=_BINARY_SAMPLES))
register(Op("sub", _sub_forward, _sub_backward, elementwise=True, shardable=True, samples=_BINARY_SAMPLES))
register(Op("mul", _mul_forward, _mul_backward, elementwise=True, shardable=True, samples=_BINARY_SAMPLES))
register(
    Op(
        "div",
        _div_forward,
        _div_backward,
        elementwise=True, shardable=True,
        samples=(
            GradSample(shapes=((3, 4), (3, 4)), low=0.5, high=2.0, positive=True),
            GradSample(shapes=((3, 1), (3, 4)), low=0.5, high=2.0, positive=True),
        ),
    )
)
register(
    Op("neg", _neg_forward, _neg_backward, elementwise=True, shardable=True, samples=(GradSample(shapes=((3, 4),)),))
)
register(
    Op(
        "pow",
        _pow_forward,
        _pow_backward,
        elementwise=True, shardable=True,
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
        shardable=True,
        shard_units=_matmul_shard_units,
        forward_shard=_matmul_forward_shard,
        backward_shard=_matmul_backward_shard,
        cost=_matmul_cost,
        samples=(
            GradSample(shapes=((3, 4), (4, 5))),
            GradSample(shapes=((2, 3, 4), (4, 5))),  # batched lhs broadcast
        ),
    )
)
register(
    Op("exp", _exp_forward, _exp_backward, elementwise=True, shardable=True, samples=(GradSample(shapes=((3, 4),)),))
)
register(
    Op(
        "log",
        _log_forward,
        _log_backward,
        elementwise=True, shardable=True,
        samples=(GradSample(shapes=((3, 4),), low=0.5, high=3.0, positive=True),),
    )
)
register(
    Op(
        "sqrt",
        _sqrt_forward,
        _sqrt_backward,
        elementwise=True, shardable=True,
        samples=(GradSample(shapes=((3, 4),), low=0.5, high=3.0, positive=True),),
    )
)
register(
    Op(
        "tanh", _tanh_forward, _tanh_backward, elementwise=True, shardable=True, samples=(GradSample(shapes=((3, 4),)),)
    )
)
register(
    Op(
        "abs",
        _abs_forward,
        _abs_backward,
        elementwise=True, shardable=True,
        samples=(GradSample(shapes=((3, 4),), low=0.25, high=2.0, positive=True),),
    )
)
register(
    Op(
        "maximum",
        _maximum_forward,
        _maximum_backward,
        elementwise=True, shardable=True,
        samples=(GradSample(shapes=((3, 4),), params={"value": 0.1}),),
    )
)
register(
    Op(
        "minimum",
        _minimum_forward,
        _minimum_backward,
        elementwise=True, shardable=True,
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
        elementwise=True, shardable=True,
        samples=(GradSample(shapes=((3, 4),), low=0.25, high=2.0, positive=True),),
    )
)
register(
    Op(
        "sigmoid",
        _sigmoid_forward,
        _sigmoid_backward,
        elementwise=True, shardable=True,
        samples=(GradSample(shapes=((3, 4),)),),
    )
)
register(
    Op(
        "gelu",
        _gelu_forward,
        _gelu_backward,
        elementwise=True,
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
        shardable=True,
        shard_units=_conv2d_shard_units,
        forward_shard=_conv2d_forward_shard,
        backward_shard=_conv2d_backward_shard,
        cost=_conv2d_cost,
        samples=(
            GradSample(shapes=((2, 3, 5, 5), (4, 3, 3, 3)), params={"stride": 1, "padding": 0}),
            GradSample(
                shapes=((1, 2, 6, 6), (3, 2, 3, 3), (3,)), params={"stride": 2, "padding": 1}
            ),
            # Batch-1 with out_h > SPATIAL_BAND_ROWS: exercises spatial
            # banding (ragged final band) under a forced low FLOP floor.
            GradSample(
                shapes=((1, 2, 11, 11), (3, 2, 3, 3), (3,)), params={"stride": 1, "padding": 1}
            ),
        ),
    )
)
register(
    Op(
        "max_pool2d",
        _max_pool2d_forward,
        _max_pool2d_backward,
        shardable=True,
        shard_units=_pool_shard_units,
        forward_shard=_max_pool2d_forward_shard,
        backward_shard=_max_pool2d_backward_shard,
        cost=_pool_cost,
        samples=(GradSample(shapes=((2, 3, 4, 4),), params={"kernel": 2, "stride": 2}),),
    )
)
register(
    Op(
        "avg_pool2d",
        _avg_pool2d_forward,
        _avg_pool2d_backward,
        shardable=True,
        shard_units=_pool_shard_units,
        forward_shard=_avg_pool2d_forward_shard,
        backward_shard=_avg_pool2d_backward_shard,
        cost=_pool_cost,
        samples=(GradSample(shapes=((2, 3, 4, 4),), params={"kernel": 2, "stride": 2}),),
    )
)
