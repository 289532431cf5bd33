"""Canonical banding of the heavyweight kernels.

The container's BLAS is *not* row-stable: ``(a @ b)[i:j]`` and
``a[i:j] @ b`` differ in the last bits.  So every heavy kernel call whose
shapes pass :func:`banded` computes its result in fixed *canonical bands*,
in eager mode and in replays alike: one sample of the batch axis for
conv2d, :data:`MATMUL_BAND_ROWS` rows for 2-D matmul, and, for a
single-sample conv2d, :data:`SPATIAL_BAND_ROWS` output rows with
halo-aware input windows.  The decision is a pure function of shapes and
FLOPs, which keeps eager and replayed values equal.

Reductions *across* the band axis (conv2d ``grad_weight``/``grad_bias``,
matmul ``grad_b``) compute one partial per band into pooled scratch slabs
and combine them through :func:`tree_reduce`, a fixed-shape binary tree
whose combine order depends on the band count alone.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autodiff import profiler as _profiler
from repro.autodiff.pool import BufferPool

__all__ = [
    "MATMUL_BAND_ROWS",
    "MIN_BAND_FLOPS",
    "SPATIAL_BAND_ROWS",
    "banded",
    "reduce_bands",
    "scratch_pool",
    "tree_reduce",
]

#: Canonical band height for 2-D matmuls.  Per-*row* bands would degrade the
#: GEMM into thousands of GEMV calls; 64-row bands keep each call a real
#: (cache-blocked) GEMM.
MATMUL_BAND_ROWS = 64

#: Canonical band height (in *output rows*) for spatially banded 4-D kernels
#: when the batch axis is a single sample.  Small enough that test-sized
#: feature maps still split into several ragged bands.
SPATIAL_BAND_ROWS = 4

#: FLOP floor before a heavy kernel switches to canonical banding.  Read at
#: call time, so tests can lower it to band small fixtures; within one
#: process it must stay fixed between recording and replay (banding changes
#: last-bit values by design).
MIN_BAND_FLOPS = 2_000_000


def banded(units: int, flops: int) -> bool:
    """Whether a heavy kernel call computes in canonical bands.

    A pure function of the call's shapes (band count) and FLOPs: banding
    changes values in the last bits, so the decision must not depend on
    anything that varies between the eager pass that records a graph and
    the replays that re-execute it.
    """
    if units < 2:
        return False
    floor = MIN_BAND_FLOPS
    return flops >= floor and flops // units >= max(floor // 32, 1)


def tree_reduce(slabs: list, out) -> None:
    """Sum ``slabs`` into ``out`` through a fixed-shape binary tree.

    The combine order is a pure function of ``len(slabs)``: pairs merge in
    index order, odd tails carry to the next level, and the final pair lands
    in ``out``.  Floating point addition is not associative, so a fixed tree
    is what makes the reduced bytes reproducible.  Leaf slabs are consumed:
    interior sums overwrite them in place.
    """
    if len(slabs) == 1:
        np.copyto(out, slabs[0])
        return
    active = list(slabs)
    while len(active) > 2:
        merged = []
        for index in range(0, len(active) - 1, 2):
            np.add(active[index], active[index + 1], out=active[index])
            merged.append(active[index])
        if len(active) % 2:
            merged.append(active[-1])
        active = merged
    np.add(active[0], active[1], out=out)


#: Process-wide scratch pool for per-band temporaries (im2col padding, band
#: result matrices, reduce partials).  Scratch lifetimes are a take/release
#: pair inside one kernel call, not an arena generation, so this is not the
#: thread-local tensor pool.
_SCRATCH = BufferPool()


def scratch_pool() -> BufferPool:
    """The process-wide scratch pool banded kernels draw temporaries from."""
    return _SCRATCH


def reduce_bands(units: int, partial_fn, out, name: str | None = None) -> None:
    """Tree-reduce per-band partials into ``out`` (a cross-batch gradient).

    ``partial_fn(band, slab)`` computes canonical band ``band``'s partial
    into ``slab`` (shaped/typed like ``out``, drawn from the scratch pool);
    :func:`tree_reduce` combines the slabs.  With ``name`` set and a
    profiler active, the whole reduce lands under a ``<name>_treereduce``
    row whose meta records the pooled partial bytes.
    """
    profiler = _profiler.active_profiler() if name is not None else None
    began = time.perf_counter() if profiler is not None else 0.0
    pool = scratch_pool()
    slabs = [pool.take(out.shape, out.dtype) for _ in range(units)]
    for band, slab in enumerate(slabs):
        partial_fn(band, slab)
    tree_reduce(slabs, out)
    for slab in slabs:
        pool.release(slab)
    if profiler is not None:
        profiler.record(
            f"{name}_treereduce",
            time.perf_counter() - began,
            0,
            0,
            meta={"partial_bytes": units * out.nbytes},
        )
