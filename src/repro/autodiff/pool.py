"""Pooled ``out=`` buffers for the op dispatcher and captured replays.

Step loops (attack iterations, serving forwards, training steps) allocate the
same (shape, dtype) arrays over and over: every elementwise op output is a
fresh ``np.empty`` the previous step already owned.  A :class:`BufferPool`
keeps free lists keyed by (shape, dtype) and hands the same arrays back out,
turning per-step allocation into per-step reuse.

The pool is an *arena with explicit generations*: :meth:`acquire` hands out a
buffer and remembers it; :meth:`recycle` returns every outstanding buffer to
the free lists at once.  The caller owns the safety argument — recycle only
at a point where the previous generation's tensors are dead (e.g. between
attack steps, after the optimizer consumed the gradients).  Nothing is
recycled implicitly, so code that never calls :meth:`recycle` just gets
plain allocation with bookkeeping.

Activate a pool for the current thread with :func:`use_buffer_pool`; the op
dispatcher (:func:`repro.autodiff.ops.apply`) then feeds elementwise kernels
pooled ``out=`` arrays whenever the result dtype matches the engine default
(mixed-dtype calls keep the compute-then-cast semantics untouched).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass
class PoolStats:
    """Counters exposed for tests and the op microbench."""

    allocations: int = 0
    reuses: int = 0
    recycles: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "allocations": self.allocations,
            "reuses": self.reuses,
            "recycles": self.recycles,
        }


class BufferPool:
    """Reusable ``np.empty`` arrays keyed by (shape, dtype).

    Thread-safe: a pool may be hit from several threads at once (replays
    run on whatever thread calls them, ``test_serial_replay.py::
    TestCallingThread``, and the :func:`scratch_pool` is process-wide).  A
    single lock guards every mutation; without it two concurrent
    :meth:`acquire` calls could pop the same free-list entry and hand the
    same array out twice.
    """

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._outstanding: list[np.ndarray] = []
        self._lock = threading.Lock()
        self.stats = PoolStats()

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised buffer of the requested shape and dtype."""
        key = (tuple(shape), np.dtype(dtype).str)
        with self._lock:
            free = self._free.get(key)
            if free:
                buffer = free.pop()
                self.stats.reuses += 1
            else:
                buffer = np.empty(shape, dtype=dtype)
                self.stats.allocations += 1
            self._outstanding.append(buffer)
        return buffer

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A scratch buffer *outside* the arena generations.

        Unlike :meth:`acquire`, the buffer is not added to the outstanding
        ledger, so :meth:`recycle` never reclaims it: the caller owns it
        until it hands it back with :meth:`release` (a take/release pair
        scoped to one kernel call or one aggregation).
        """
        key = (tuple(shape), np.dtype(dtype).str)
        with self._lock:
            free = self._free.get(key)
            if free:
                self.stats.reuses += 1
                return free.pop()
            self.stats.allocations += 1
        return np.empty(shape, dtype=dtype)

    def release(self, buffer: np.ndarray) -> None:
        """Return one buffer to its free list (pairs with :meth:`take`)."""
        key = (buffer.shape, buffer.dtype.str)
        with self._lock:
            self._free.setdefault(key, []).append(buffer)

    def clear(self) -> int:
        """Drop every pooled buffer (free lists *and* outstanding ledger).

        Unlike :meth:`recycle` nothing is retained for reuse: the arrays are
        released to the garbage collector.  Tests use this to start from a
        cold pool before asserting warm-replay allocation behaviour; long
        processes can call it to shed a workload's worth of scratch slabs
        after shapes change.  Returns how many buffers were dropped.  The
        counters in :attr:`stats` are left untouched (they are cumulative).
        """
        with self._lock:
            count = sum(len(free) for free in self._free.values()) + len(self._outstanding)
            self._free.clear()
            self._outstanding.clear()
        return count

    def recycle(self) -> int:
        """Return every outstanding buffer to the free lists; ends a step.

        The caller asserts the previous generation's arrays are no longer
        referenced by live tensors it still needs.  Returns how many buffers
        were recycled.
        """
        with self._lock:
            count = len(self._outstanding)
            for buffer in self._outstanding:
                key = (buffer.shape, buffer.dtype.str)
                self._free.setdefault(key, []).append(buffer)
            self._outstanding.clear()
            self.stats.recycles += 1
        return count

    def __len__(self) -> int:
        with self._lock:
            return sum(len(free) for free in self._free.values()) + len(self._outstanding)


#: Process-wide scratch pool for kernel and aggregation temporaries (im2col
#: padding, per-sample conv results, FedAvg group slabs).  Scratch lifetimes
#: are a take/release pair inside one call, not an arena generation, so this
#: is not the thread-local tensor pool.
_SCRATCH = BufferPool()


def scratch_pool() -> BufferPool:
    """The process-wide scratch pool kernels and aggregators draw temporaries from."""
    return _SCRATCH


class _PoolState(threading.local):
    def __init__(self) -> None:
        self.pool: BufferPool | None = None


_STATE = _PoolState()


def active_buffer_pool() -> BufferPool | None:
    """The pool the dispatcher should draw ``out=`` buffers from, if any."""
    return _STATE.pool


class use_buffer_pool:
    """Context manager activating a :class:`BufferPool` for this thread."""

    def __init__(self, pool: BufferPool | None = None) -> None:
        self.pool = pool if pool is not None else BufferPool()

    def __enter__(self) -> BufferPool:
        self._previous = _STATE.pool
        _STATE.pool = self.pool
        return self.pool

    def __exit__(self, *exc_info) -> None:
        _STATE.pool = self._previous
