"""Bit-identity tests for batch-1 conv2d and the scratch pool's warm replays.

Two invariants under test, both stronger than "numerically close":

* **Batch 1 stays whole** — per-sample conv bands need two or more samples,
  so a single-sample conv2d is one im2col-GEMM however low the FLOP floor
  sits, and replays reproduce the eager values byte for byte.

* **Warm replays allocate no scratch** — per-sample conv bands draw their
  temporaries from the process-wide scratch pool; once a replay has warmed
  it, later replays reuse every buffer.
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
)
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff.conv import conv2d
from repro.autodiff.pool import BufferPool, scratch_pool

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
    monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 1)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestConvBandCount:
    def test_batch_of_two_still_bands_on_samples(self, rng, low_floor):
        """n >= 2 bands per sample; a single sample of the same geometry stays whole."""
        arrays = [rng.normal(size=(2, 3, 16, 16)), rng.normal(size=(4, 3, 3, 3))]
        params = {"stride": 1, "padding": 1}
        assert op_registry._conv2d_band_count(arrays, params) == 2
        assert op_registry._conv2d_band_count([arrays[0][:1], arrays[1]], params) == 0

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
        """Heights that leave odd feature maps after each pooling window."""
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
        pool = scratch_pool()
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
