"""Execution contexts for the autodiff engine.

Two orthogonal pieces of thread-local state are tracked here:

* whether gradient recording is enabled (:class:`no_grad`), and
* whether tensors created *right now* belong to a shielded (TEE) region
  (:class:`shield_scope`), which is how PELTA tags the quantities that live
  inside the enclave.

The state is per-thread because eager runs and captured replays execute on
whatever thread calls them (``test_serial_replay.py::TestCallingThread``):
one caller's ``no_grad`` inference must not disable gradient recording in
another thread's backward pass.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.autodiff.tensor import Tensor


class _EngineState(threading.local):
    """Per-thread mutable state for the autodiff engine."""

    def __init__(self) -> None:
        self.grad_enabled: bool = True
        self.shield_stack: list["ShieldRegion"] = []


_STATE = _EngineState()


def is_grad_enabled() -> bool:
    """Return True when operations should record gradient information."""
    return _STATE.grad_enabled


class no_grad:
    """Context manager disabling gradient recording.

    Tensors created inside the block do not require gradients and do not
    retain backward functions, which keeps inference-only passes cheap.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.grad_enabled = self._previous


class frozen_parameters:
    """Temporarily clear ``requires_grad`` on a set of tensors.

    Attack-side gradient queries only read the gradient with respect to the
    *input*; freezing the model parameters lets the backward closures skip
    the (equally expensive) parameter-gradient computations.  The input
    gradient is unaffected — the parameter-gradient terms never feed it.
    """

    def __init__(self, tensors) -> None:
        self._tensors = list(tensors)
        self._previous: list[bool] = []

    def __enter__(self) -> "frozen_parameters":
        self._previous = [tensor.requires_grad for tensor in self._tensors]
        for tensor in self._tensors:
            tensor.requires_grad = False
        return self

    def __exit__(self, *exc_info) -> None:
        for tensor, previous in zip(self._tensors, self._previous):
            tensor.requires_grad = previous


class ShieldRegion:
    """Collects every tensor created while a shield scope is active.

    The region is the bookkeeping object that an enclave (``repro.tee``) uses
    to account for secure memory: each tensor appended here is considered to
    be resident inside the TEE in the worst case where intermediate
    activations and gradients are not flushed (the accounting convention of
    Table I in the paper).
    """

    def __init__(self, name: str = "shield") -> None:
        self.name = name
        self.tensors: list["Tensor"] = []

    def register(self, tensor: "Tensor") -> None:
        """Record a tensor as created inside this shielded region."""
        self.tensors.append(tensor)

    def nbytes(self, include_gradients: bool = True) -> int:
        """Total bytes of values (and, optionally, gradients) in the region.

        Gradient bytes are counted as one extra copy of every tensor that
        requires a gradient, matching the worst-case accounting of the paper.
        """
        total = 0
        for tensor in self.tensors:
            total += tensor.data.nbytes
            if include_gradients and tensor.requires_grad:
                total += tensor.data.nbytes
        return total

    def __len__(self) -> int:
        return len(self.tensors)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShieldRegion(name={self.name!r}, tensors={len(self.tensors)})"


class shield_scope:
    """Context manager tagging tensors created inside it as shielded."""

    def __init__(self, region: ShieldRegion | None = None, name: str = "shield") -> None:
        self.region = region if region is not None else ShieldRegion(name)

    def __enter__(self) -> ShieldRegion:
        _STATE.shield_stack.append(self.region)
        return self.region

    def __exit__(self, *exc_info) -> None:
        _STATE.shield_stack.pop()


def active_shield_region() -> ShieldRegion | None:
    """Return the innermost active shield region, or None."""
    if _STATE.shield_stack:
        return _STATE.shield_stack[-1]
    return None
