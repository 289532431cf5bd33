"""Captured-graph execution: record a graph once, replay it with reused buffers.

Iterative gradient attacks issue hundreds of structurally identical gradient
queries: same model, same input shape, same objective — only the input values
change.  The eager engine rebuilds the whole Python graph (tensor objects,
closures, shield-region bookkeeping, topological sort) for every query.  This
module removes that overhead behind a pluggable *execution backend* seam:

* :class:`EagerExecution` — the classic behaviour: trace a fresh graph per
  query and run :meth:`~repro.autodiff.tensor.Tensor.backward` on it.
* :class:`CapturedExecution` — record the graph once per (trace key, input
  shape), then replay it: new input values are copied into the recorded
  input buffer, every input-dependent node reruns its op kernel into its
  own buffer, in recorded order, and the recorded backward closures run in
  the recorded order.

Because a replay executes exactly the same NumPy expressions in exactly the
same order as the eager pass that recorded it, its gradients are
**bit-identical** to eager — only the per-query Python overhead is gone.
Graphs containing non-replayable ops (e.g. training-mode dropout, which
redraws its mask per call) transparently fall back to eager execution.

A recording owns its buffers, so it must not be shared across threads, and it
assumes the model parameters do not change between replays (true for the
attack hot path: defenders are frozen while being attacked).  It records from
a private copy of the recording query's input, so replays never write into an
array the caller still holds.

The same classes replay **grad-free inference** graphs: a graph traced
under ``no_grad`` still registers every op's ``forward_fn`` thunk but builds
no tape, so its objective (the logits) does not require grad, and a replay
reruns only the forward kernels.  Replayed logits are bit-identical to an
eager forward of the same batch.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from repro.autodiff import profiler as _profiler
from repro.autodiff.tensor import Tensor, topological_order
from repro.utils.logging import get_logger

_LOGGER = get_logger("autodiff.capture")

#: Names accepted by :func:`resolve_execution_backend`.
EXECUTION_BACKENDS = ("eager", "captured")


class GraphCaptureError(RuntimeError):
    """A recorded graph cannot be replayed (unsupported op or shape drift)."""


class _ReplayNode:
    """One replay step: rerun the node's kernel into its recorded buffer.

    When the buffer is writeable and every operand has its dtype, the kernel
    gets the buffer as ``out=``: elementwise kernels, matmuls and banded
    conv2d write it in place.  Otherwise the kernel reruns without ``out=``:
    a mixed-dtype call computed in another dtype than its buffer holds, and
    writing through ``out=`` would change the rounding.  A returned array is
    copied into the buffer unless it already is the buffer's memory (views
    from reshape, transpose or basic slicing of a refreshed parent); the copy
    flag is decided on the first replay.
    """

    __slots__ = ("node", "call", "out", "needs_copy")

    def __init__(self, node: Tensor):
        self.node = node
        self.call = node._op_call
        data = node.data
        in_place = data.flags.writeable and all(
            tensor.data.dtype == data.dtype for tensor in self.call.tensors
        )
        self.out = data if in_place else None
        self.needs_copy: bool | None = None

    def run(self) -> None:
        data = self.node.data
        new_value = self.call.kernel(out=self.out)
        if new_value is data:
            return
        if self.needs_copy is None:
            self.needs_copy = not (
                new_value.shape == data.shape
                and new_value.strides == data.strides
                and new_value.__array_interface__["data"][0]
                == data.__array_interface__["data"][0]
            )
        if self.needs_copy:
            np.copyto(data, new_value)


@dataclass
class TraceHandles:
    """Live graph handles a trace hands back to the execution backend.

    ``rebinds`` are ``(obj, attribute, value)`` triples re-applied after every
    replay so that side-channel attributes set during the record-time forward
    pass (e.g. a shielded model's ``last_frontier``, an attention module's
    ``last_attention_weights``) point back at the recorded tensors, whose
    buffers the replay refreshed in place.

    The objective of a forward-only trace (built under ``no_grad``) is the
    output itself; it does not require grad, so no backward pass runs.
    """

    objective: Tensor
    input: Tensor
    rebinds: list[tuple[object, str, object]] = field(default_factory=list)


class GraphRecording:
    """A replayable snapshot of one (input → objective) graph.

    A replay reruns the backward pass only when the objective requires grad;
    a graph traced under ``no_grad`` replays its forward kernels alone.
    """

    def __init__(self, handles: TraceHandles):
        self.input = handles.input
        self.objective = handles.objective
        self.rebinds = list(handles.rebinds)
        self.requires_grad = self.objective.requires_grad
        order = topological_order(self.objective)
        dependent: set[int] = {self.input.node_id}
        replay: list[Tensor] = []
        for node in order:
            if node is self.input:
                continue
            if any(parent.node_id in dependent for parent in node.parents):
                dependent.add(node.node_id)
                if node.forward_fn is None:
                    raise GraphCaptureError(
                        f"op {node.op!r} does not support captured-graph replay"
                    )
                replay.append(node)
        if not self.requires_grad and self.objective.node_id not in dependent:
            raise GraphCaptureError("model output does not depend on the input")
        #: Topological order of the whole graph (grads are reset over it).
        self._order = order
        #: One step per input-dependent node, in recorded order.
        self._steps = [_ReplayNode(node) for node in replay]
        self._reversed = list(reversed(order))
        self._seed = np.ones_like(self.objective.data)
        #: Number of times this recording has been replayed.
        self.replays = 0

    def __len__(self) -> int:
        return len(self._order)

    def replay(self, inputs: np.ndarray) -> TraceHandles:
        """Re-execute the recorded forward (and backward) passes in place."""
        inputs = np.asarray(inputs)
        if inputs.shape != self.input.shape:
            raise GraphCaptureError(
                f"replay input shape {inputs.shape} != recorded {self.input.shape}"
            )
        profiler = _profiler.active_profiler()
        started = time.perf_counter() if profiler is not None else 0.0
        np.copyto(self.input.data, inputs)
        for step in self._steps:
            step.run()
        if self.requires_grad:
            for node in self._order:
                node.grad = None
            # Inline of Tensor.backward over the recorded order: same seed,
            # same reversed traversal, same accumulation order — bit-identical
            # grads.
            self.objective._accumulate(self._seed)
            for node in self._reversed:
                if node.backward_fn is None or node.grad is None:
                    continue
                node.backward_fn(node.grad)
                if not node.retains_grad:
                    node.grad = None
        for obj, attribute, value in self.rebinds:
            setattr(obj, attribute, value)
        self.replays += 1
        if profiler is not None:
            profiler.record("captured_replay", time.perf_counter() - started, 0, 0)
        return TraceHandles(
            objective=self.objective,
            input=self.input,
            rebinds=self.rebinds,
        )


#: A trace builds the graph for one query: it creates the input tensor from
#: the given array, runs the forward pass and objective, and returns handles.
Trace = Callable[[np.ndarray], TraceHandles]


class EagerExecution:
    """Trace a fresh graph per query (the seed engine's behaviour)."""

    name = "eager"

    def run(self, trace: Trace, inputs: np.ndarray, key: Hashable = None) -> TraceHandles:
        handles = trace(np.asarray(inputs))
        if handles.objective.requires_grad:
            handles.objective.backward()
        return handles


@dataclass
class CaptureStats:
    """Counters exposed for tests and the throughput bench."""

    records: int = 0
    replays: int = 0
    fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"records": self.records, "replays": self.replays, "fallbacks": self.fallbacks}


class CapturedExecution:
    """Record-once / replay-many execution with an LRU recording cache.

    ``key`` identifies the *structure* of the query (model identity, loss,
    labels, ...); together with the input shape and dtype it addresses one
    recording.  Recording is lazy (second query with the same key), so
    one-shot graphs (FGSM, trailing partial batches) never pay for a
    recording nobody will replay.  Unsupported graphs are remembered and
    always executed eagerly.
    """

    name = "captured"

    def __init__(self, max_recordings: int = 8):
        self.max_recordings = max(int(max_recordings), 1)
        self._recordings: OrderedDict[Hashable, GraphRecording] = OrderedDict()
        self._seen: set[Hashable] = set()
        self._unsupported: set[Hashable] = set()
        self.stats = CaptureStats()

    def run(self, trace: Trace, inputs: np.ndarray, key: Hashable = None) -> TraceHandles:
        inputs = np.asarray(inputs)
        full_key = (key, inputs.shape, inputs.dtype.str)
        if full_key in self._unsupported:
            self.stats.fallbacks += 1
            return EagerExecution().run(trace, inputs)
        recording = self._recordings.get(full_key)
        if recording is not None:
            self._recordings.move_to_end(full_key)
            self.stats.replays += 1
            return recording.replay(inputs)
        records = full_key in self._seen
        # A recording keeps its traced input as the buffer later replays
        # overwrite, so the recording query traces a private copy rather
        # than the caller's array.
        handles = trace(np.array(inputs, copy=True) if records else inputs)
        if handles.objective.requires_grad:
            handles.objective.backward()
        if not records:
            self._seen.add(full_key)
            return handles
        try:
            recording = GraphRecording(handles)
        except GraphCaptureError as error:
            _LOGGER.info("captured backend falling back to eager: %s", error)
            self._unsupported.add(full_key)
            self.stats.fallbacks += 1
            return handles
        self._recordings[full_key] = recording
        self.stats.records += 1
        while len(self._recordings) > self.max_recordings:
            self._recordings.popitem(last=False)
        return handles


def resolve_execution_backend(spec: str | None) -> EagerExecution | CapturedExecution:
    """Build the execution backend a name selects (``None`` means eager)."""
    if spec is None or spec == "eager":
        return EagerExecution()
    if spec == "captured":
        return CapturedExecution()
    raise ValueError(f"unknown execution backend {spec!r}; expected one of {EXECUTION_BACKENDS}")
