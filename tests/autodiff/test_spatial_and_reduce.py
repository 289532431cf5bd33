"""Bit-identity tests for tree-reduced gradients and batch-1 spatial banding.

Two invariants under test, both stronger than "numerically close":

* **Tree-reduced cross-batch gradients** — banded backward kernels compute
  per-band partial gradients into pooled slabs and combine them through
  :func:`repro.autodiff.banding.tree_reduce`, whose combine order is a pure
  function of the band count, so the reduced bytes are reproducible.

* **Spatial (H×W) banding for batch 1** — with a single sample there is no
  batch axis to band, so conv2d bands over output rows instead
  (:data:`SPATIAL_BAND_ROWS` rows per band, halo-aware input windows).  im2col
  is pure copies, so the assembled unfold is byte-identical to the
  whole-image unfold, and replays reproduce the eager values.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    Tensor,
    TraceHandles,
    get_default_dtype,
    profile_ops,
)
from repro.autodiff import banding
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff.conv import conv2d, im2col, im2col_into
from repro.autodiff.pool import BufferPool

from tests.autodiff.conftest import window_pool


def _tower_weights(rng, dtype, head_features=128):
    return {
        "w1": Tensor(rng.normal(size=(8, 3, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "b1": Tensor(rng.normal(size=(8,)).astype(dtype) * 0.1,
                     requires_grad=True, is_parameter=True),
        "w2": Tensor(rng.normal(size=(8, 8, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "head": Tensor(rng.normal(size=(head_features, 5)).astype(dtype) * 0.2,
                       requires_grad=True, is_parameter=True),
    }


def _tower_trace(weights):
    """conv → relu → 2×2 max → conv → 2×2 mean → flatten → matmul head."""

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        h = conv2d(x, weights["w1"], weights["b1"], stride=1, padding=1)
        h = F.relu(h)
        h = window_pool(h, Tensor.max)
        h = conv2d(h, weights["w2"], stride=1, padding=1)
        h = window_pool(h, Tensor.mean)
        logits = h.reshape(h.shape[0], -1) @ weights["head"]
        return TraceHandles(objective=(logits * logits).sum(), input=x)

    return trace


@pytest.fixture
def low_floor(monkeypatch):
    """Band every heavy kernel call the fixtures make, however small."""
    monkeypatch.setattr(banding, "MIN_BAND_FLOPS", 1)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestTreeReduce:
    def test_single_slab_copies(self, rng):
        slab = rng.normal(size=(3, 4))
        out = np.empty_like(slab)
        banding.tree_reduce([slab.copy()], out)
        assert out.tobytes() == slab.tobytes()

    @pytest.mark.parametrize("count", [2, 3, 5, 7, 8, 13])
    def test_sums_are_close_and_deterministic(self, rng, count):
        slabs = [rng.normal(size=(6, 5)) for _ in range(count)]
        out = np.empty((6, 5))
        banding.tree_reduce([s.copy() for s in slabs], out)
        np.testing.assert_allclose(out, np.sum(slabs, axis=0), rtol=1e-9, atol=1e-12)
        again = np.empty((6, 5))
        banding.tree_reduce([s.copy() for s in slabs], again)
        assert out.tobytes() == again.tobytes()

    def test_combine_order_is_a_function_of_count_alone(self, rng):
        """Filling leaves in any order (any worker schedule) changes nothing."""
        slabs = [rng.normal(size=(4, 4)) for _ in range(5)]
        expected = np.empty((4, 4))
        banding.tree_reduce([s.copy() for s in slabs], expected)
        # Simulate out-of-order leaf completion: the slab *list* is always
        # indexed by band, so arrival order cannot matter — but prove the
        # tree itself differs from a naive left fold only in bits, not value.
        fold = slabs[0].copy()
        for slab in slabs[1:]:
            fold = fold + slab
        np.testing.assert_allclose(expected, fold, rtol=1e-9, atol=1e-12)


class TestReduceBands:
    def test_profiler_row_records_partial_bytes(self, rng):
        units = 6
        partials = [rng.normal(size=(8, 6)) for _ in range(units)]
        out = np.empty((8, 6))
        with profile_ops() as profiler:
            banding.reduce_bands(
                units, lambda band, slab: np.copyto(slab, partials[band]), out, name="demo"
            )
        row = profiler.as_dict()["demo_treereduce"]
        assert row["calls"] == 1
        assert row["meta"]["partial_bytes"] == units * out.nbytes
        expected = np.empty((8, 6))
        banding.tree_reduce([p.copy() for p in partials], expected)
        assert out.tobytes() == expected.tobytes()

    def test_unnamed_reduce_records_no_row(self, rng):
        partials = [rng.normal(size=(3, 3)) for _ in range(4)]
        out = np.empty((3, 3))
        with profile_ops() as profiler:
            banding.reduce_bands(4, lambda band, slab: np.copyto(slab, partials[band]), out)
        assert not profiler.as_dict()

    def test_slabs_return_to_the_scratch_pool(self, rng):
        """Every partial slab is released, so a repeat reduce allocates none."""
        pool = banding.scratch_pool()
        out = np.empty((5, 7))

        def partial(band, slab):
            slab.fill(band)

        banding.reduce_bands(3, partial, out)
        allocations = pool.stats.allocations
        banding.reduce_bands(3, partial, out)
        assert pool.stats.allocations == allocations
        np.testing.assert_array_equal(out, np.full((5, 7), 3.0))


@pytest.mark.parametrize(
    "h,w,kh,kw,stride,padding",
    [
        (11, 11, 3, 3, 1, 1),   # ragged: out_h=11 -> bands of 4, 4, 3
        (16, 16, 3, 3, 1, 0),
        (15, 15, 5, 5, 2, 2),   # stride>1 with a wide halo
        (9, 13, 3, 5, 2, 1),    # asymmetric kernel, ragged both ways
        (8, 8, 2, 2, 2, 0),     # pooling geometry
        (7, 7, 3, 3, 1, 3),     # padding wider than the band overlap
    ],
)
class TestSpatialWindowHalo:
    """Row-window unfolds carry their halo and tile back byte-identically."""

    def test_banded_unfold_matches_whole(self, rng, h, w, kh, kw, stride, padding):
        images = rng.normal(size=(1, 3, h, w))
        full, out_h, out_w = im2col(images, kh, kw, stride, padding)
        assembled = np.empty(full.shape, full.dtype)
        rows_per_band = banding.SPATIAL_BAND_ROWS
        bands = -(-out_h // rows_per_band)
        for band in range(bands):
            r0 = band * rows_per_band
            r1 = min(r0 + rows_per_band, out_h)
            window = assembled[r0 * out_w : r1 * out_w]
            im2col_into(images, kh, kw, stride, padding, window, row_start=r0, row_stop=r1)
        assert assembled.tobytes() == full.tobytes()


class TestSpatialBands:
    def test_batch_of_two_still_bands_on_samples(self, rng, low_floor):
        """n >= 2 keeps the batch axis: units == n, not spatial bands."""
        arrays = [rng.normal(size=(2, 3, 16, 16)), rng.normal(size=(4, 3, 3, 3))]
        params = {"stride": 1, "padding": 1}
        assert op_registry._conv2d_band_count(arrays, params) == 2
        # A single sample of the same geometry bands over 16 / 4 output rows.
        assert op_registry._conv2d_band_count([arrays[0][:1], arrays[1]], params) == 4

    @pytest.mark.parametrize("height,units", [(3, 0), (4, 0), (5, 2), (16, 4), (17, 5)])
    def test_single_sample_bands_over_output_rows(self, rng, low_floor, height, units):
        """ceil(out_h / SPATIAL_BAND_ROWS) bands; a single band stays whole."""
        arrays = [rng.normal(size=(1, 3, height, height)), rng.normal(size=(4, 3, 3, 3))]
        params = {"stride": 1, "padding": 1}
        assert op_registry._conv2d_band_count(arrays, params) == units

    def test_mixed_dtype_conv_stays_whole(self, rng, low_floor):
        arrays = [rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3)).astype(np.float32)]
        assert op_registry._conv2d_band_count(arrays, {"stride": 1, "padding": 1}) == 0


class TestBatch1CapturedTower:
    def test_batch1_replay_matches_eager_sha256(self, rng, low_floor):
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(3):
            batch = rng.normal(size=(1, 3, 16, 16)).astype(dtype)
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="tower-b1")
            assert _sha(expected.objective.data) == _sha(actual.objective.data), (
                f"trial={trial}"
            )
            assert _sha(np.array(expected.input.grad)) == _sha(np.array(actual.input.grad)), (
                f"trial={trial}"
            )
        assert captured.stats.replays >= 1


    @pytest.mark.parametrize("height", [16, 18, 22])
    def test_batch1_replay_matches_eager_at_ragged_heights(self, rng, low_floor, height):
        """Heights whose output rows leave short last bands in both convs."""
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype, head_features=8 * (height // 4) ** 2)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(3):
            batch = rng.normal(size=(1, 3, height, height)).astype(dtype)
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="tower-b1-ragged")
            assert _sha(np.array(expected.input.grad)) == _sha(np.array(actual.input.grad)), (
                f"height={height} trial={trial}"
            )
        assert captured.stats.replays == 1


class TestScratchPoolWarmReplay:
    def test_warm_reduce_replays_allocate_zero_new_slabs(self, rng, low_floor):
        """After one cold replay the scratch pool serves every later one."""
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        captured = CapturedExecution()
        batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
        pool = banding.scratch_pool()
        pool.clear()
        # Eager warmup + recording pass + first replay warm the pool.
        for _ in range(3):
            captured.run(trace, batch, key="tower-warm")
        assert captured.stats.replays >= 1
        warm = pool.stats.allocations
        for _ in range(3):
            captured.run(trace, batch, key="tower-warm")
        assert pool.stats.allocations == warm, "warm replays must not allocate slabs"
        assert pool.stats.reuses > 0

    def test_buffer_pool_clear_drops_everything(self):
        pool = BufferPool()
        kept = pool.acquire((4, 4), np.float64)
        scratch = pool.take((2, 8), np.float32)
        pool.release(scratch)
        assert len(pool) == 2
        allocations = pool.stats.allocations
        assert pool.clear() == 2
        assert len(pool) == 0
        assert pool.stats.allocations == allocations  # cumulative, untouched
        # A cleared pool allocates fresh on the next request.
        fresh = pool.take((2, 8), np.float32)
        assert fresh is not scratch
        assert kept.shape == (4, 4)  # caller's reference stays valid
