"""A small reverse-mode automatic differentiation engine on top of NumPy.

The engine records an explicit computational graph: every operation creates a
new :class:`Tensor` whose ``parents`` point to its operands and whose
``backward_fn`` knows how to push an upstream gradient to those parents.  The
graph is the object PELTA's shielding algorithm (Alg. 1 in the paper) reasons
about, so tensors also carry the metadata that algorithm needs: a stable node
id, the name of the operation that produced them, whether they are model
inputs or parameters, and whether they were produced inside a shielded (TEE)
region.

The operations themselves live in the :mod:`repro.autodiff.ops` registry;
the methods below are thin dispatchers through it.  One code path
(:func:`repro.autodiff.ops.apply`) runs the kernel, builds the node, wires
the backward closure and registers the capture thunk for every op.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Callable, Sequence, TypeAlias

import numpy as np

from repro.autodiff.context import active_shield_region, is_grad_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autodiff.ops import OpCall

_DTYPE_ALIASES = {
    "float32": np.float32,
    "f32": np.float32,
    "single": np.float32,
    "float64": np.float64,
    "f64": np.float64,
    "double": np.float64,
}


def _resolve_dtype(dtype) -> np.dtype:
    if isinstance(dtype, str):
        key = dtype.strip().lower()
        if key not in _DTYPE_ALIASES:
            raise ValueError(
                f"unsupported dtype {dtype!r}; expected one of {sorted(_DTYPE_ALIASES)}"
            )
        return np.dtype(_DTYPE_ALIASES[key])
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}; expected float32 or float64")
    return resolved


#: Process-wide default floating dtype, overridable with REPRO_DTYPE=float32
#: (float64 keeps the numeric-gradient test tolerances; float32 halves memory
#: and speeds up the NumPy kernels at bench scale).  This is the single
#: source of truth — read it through :func:`get_default_dtype`.
_DEFAULT_DTYPE = _resolve_dtype(os.environ.get("REPRO_DTYPE", "float64"))


def get_default_dtype() -> np.dtype:
    """The floating dtype new tensors are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the default floating dtype (``float32`` or ``float64``).

    Only affects tensors created afterwards; existing arrays keep their dtype.
    Returns the resolved dtype so callers can restore it later.
    """
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _resolve_dtype(dtype)
    return _DEFAULT_DTYPE


_NODE_COUNTER = itertools.count()

#: Resolved lazily on first dispatch to avoid a circular import (ops.py
#: registers kernels against this module's Tensor class).
_OPS_APPLY: Callable | None = None


def _dispatch(op: str, inputs: Sequence, params: dict | None = None) -> "Tensor":
    """Apply a registered op through :func:`repro.autodiff.ops.apply`."""
    global _OPS_APPLY
    if _OPS_APPLY is None:
        from repro.autodiff.ops import apply as ops_apply

        _OPS_APPLY = ops_apply
    return _OPS_APPLY(op, inputs, params)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (result of a broadcast op) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were expanded from size 1.
    for axis, (gdim, sdim) in enumerate(zip(grad.shape, shape)):
        if sdim == 1 and gdim != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed value participating in the computational graph.

    Parameters
    ----------
    data:
        The numeric payload (converted to the default dtype).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    parents:
        The operand tensors this node was computed from (empty for leaves).
    op:
        Human-readable name of the producing operation (``"leaf"`` for
        leaves); used by the graph inspection utilities and PELTA.
    name:
        Optional semantic name (e.g. ``"patch_embedding.weight"``).
    is_input:
        Marks the tensor as a *model input* leaf — the quantity an evasion
        attacker treats as trainable (Alg. 1 distinguishes input leaves from
        parameter leaves).
    is_parameter:
        Marks the tensor as a trainable model parameter leaf.
    """

    __array_priority__ = 1000  # ensure ndarray.__mul__ defers to Tensor.__rmul__

    def __init__(
        self,
        data: "ArrayLike",
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        op: str = "leaf",
        name: str | None = None,
        is_input: bool = False,
        is_parameter: bool = False,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        #: Keep ``grad`` after :meth:`backward` although this is not a leaf
        #: (the shielded model sets it on the frontier, whose adjoint the
        #: attacker reads).
        self.retains_grad = False
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.op = op
        self.name = name
        self.is_input = is_input
        self.is_parameter = is_parameter
        self.node_id = next(_NODE_COUNTER)
        self.backward_fn: Callable[[np.ndarray], None] | None = None
        #: Recomputes this node's output from its parents' current ``data``
        #: (refreshing any record-time buffers the backward closure captured).
        #: Consumed by :mod:`repro.autodiff.capture` to replay a recorded
        #: graph without rebuilding it; ``None`` on leaves and on ops that
        #: cannot be replayed (e.g. training-mode dropout).
        self.forward_fn: Callable[[], np.ndarray] | None = None
        #: The registry dispatch that produced this node (None on leaves);
        #: the capture layer reruns its kernel on replay, and the cost model
        #: reads its op metadata.
        self._op_call: "OpCall | None" = None
        region = active_shield_region()
        self.shielded = region is not None
        #: Whether the tensor was *created* inside a shield region.  Unlike
        #: ``shielded`` this never changes: the partition clears ``shielded``
        #: on the frontier when its value crosses to the normal world, but
        #: the enclave still paid for producing it — the worst-case memory
        #: accounting of Table I keys on this flag.
        self.created_shielded = self.shielded
        if region is not None:
            region.register(self)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        shield_flag = ", shielded=True" if self.shielded else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag}{shield_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        out = Tensor(self.data, requires_grad=False, op="detach")
        out.shielded = self.shielded
        return out

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate an incoming gradient contribution on this tensor."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones, which is the usual convention for scalar
        losses; a custom upstream gradient can be supplied for
        vector-Jacobian products.

        Leaves (parameters, inputs) keep their gradients.  An intermediate
        tensor's gradient is dropped as soon as it has been propagated to
        the tensor's parents, unless its ``retains_grad`` is set, so a
        backward pass reuses the memory of the gradients it is done with
        instead of holding one per graph node.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.broadcast_to(_as_array(grad), self.data.shape).astype(self.data.dtype)
        order = topological_order(self)
        self._accumulate(seed)
        for node in reversed(order):
            if node.backward_fn is None or node.grad is None:
                continue
            node.backward_fn(node.grad)
            if not node.retains_grad:
                node.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic operations (dispatched through the op registry)
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        return _dispatch("add", (self, other))

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        return _dispatch("sub", (self, other))

    def __rsub__(self, other) -> "Tensor":
        return _dispatch("sub", (other, self))

    def __mul__(self, other) -> "Tensor":
        return _dispatch("mul", (self, other))

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        return _dispatch("div", (self, other))

    def __rtruediv__(self, other) -> "Tensor":
        return _dispatch("div", (other, self))

    def __neg__(self) -> "Tensor":
        return _dispatch("neg", (self,))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use a Python scalar")
        return _dispatch("pow", (self,), {"power": float(exponent)})

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires operands with at least 2 dimensions")
        return _dispatch("matmul", (self, other))

    # ------------------------------------------------------------------ #
    # Elementwise unary operations
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return _dispatch("exp", (self,))

    def log(self) -> "Tensor":
        return _dispatch("log", (self,))

    def sqrt(self) -> "Tensor":
        return _dispatch("sqrt", (self,))

    def tanh(self) -> "Tensor":
        return _dispatch("tanh", (self,))

    def abs(self) -> "Tensor":
        return _dispatch("abs", (self,))

    def maximum(self, threshold: float) -> "Tensor":
        """Elementwise maximum with a scalar (used to build ReLU)."""
        return _dispatch("maximum", (self,), {"value": float(threshold)})

    def minimum(self, threshold: float) -> "Tensor":
        """Elementwise minimum with a scalar."""
        return _dispatch("minimum", (self,), {"value": float(threshold)})

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _dispatch("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _dispatch("mean", (self,), {"axis": axis, "keepdims": keepdims})

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _dispatch("max", (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------ #
    # Shape operations
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _dispatch("reshape", (self,), {"shape": shape})

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inverse = tuple(int(i) for i in np.argsort(axes))
        return _dispatch("transpose", (self,), {"axes": axes, "inverse": inverse})

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        return _dispatch("getitem", (self,), {"index": index})

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` follows :func:`numpy.pad`."""
        pad_width = tuple((int(a), int(b)) for a, b in pad_width)
        return _dispatch("pad", (self,), {"pad_width": pad_width})


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    return _dispatch("concat", tuple(tensors), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    return _dispatch("stack", tuple(tensors), {"axis": axis})


def topological_order(root: Tensor) -> list[Tensor]:
    """Return the ancestors of ``root`` (including it) in topological order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node.node_id in visited:
            continue
        visited.add(node.node_id)
        stack.append((node, True))
        for parent in node.parents:
            if parent.node_id not in visited:
                stack.append((parent, False))
    return order


#: Anything the engine accepts where an array is expected (a real alias,
#: usable with isinstance-free static checkers; defined after Tensor so the
#: union can reference the class itself).
ArrayLike: TypeAlias = np.ndarray | float | int | list | tuple | Tensor
