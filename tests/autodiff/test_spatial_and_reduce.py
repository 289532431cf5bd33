"""Bit-identity tests for batch-1 conv2d.

Per-sample conv bands need two or more samples, so a single-sample conv2d is
one im2col-GEMM however low the FLOP floor sits, and replays reproduce the
eager values byte for byte, which is stronger than "numerically close".
"""

from __future__ import annotations

import hashlib
import threading

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


class TestBandedConv:
    def test_warm_banded_replays_match_eager_sha256(self, rng, low_floor):
        """Per-sample bands replay byte for byte once the recording is warm."""
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="tower-banded")
            assert _sha(expected.objective.data) == _sha(actual.objective.data), (
                f"trial={trial}"
            )
            assert _sha(np.array(expected.input.grad)) == _sha(np.array(actual.input.grad)), (
                f"trial={trial}"
            )
        assert captured.stats.replays >= 2

    def test_concurrent_banded_convs_match_serial(self, rng, low_floor):
        """Banded convs running in several threads at once keep their own bytes."""
        dtype = get_default_dtype()
        weight = Tensor(rng.normal(size=(8, 3, 3, 3)).astype(dtype))
        bias = Tensor(rng.normal(size=(8,)).astype(dtype))
        workers, rounds = 4, 10
        inputs = [rng.normal(size=(3, 3, 12, 12)).astype(dtype) for _ in range(workers)]

        def run(array: np.ndarray) -> str:
            return _sha(conv2d(Tensor(array), weight, bias, stride=1, padding=1).data)

        expected = [run(array) for array in inputs]
        barrier = threading.Barrier(workers)
        failures: list[str] = []

        def hammer(tag: int) -> None:
            barrier.wait()
            for round_index in range(rounds):
                if run(inputs[tag]) != expected[tag]:
                    failures.append(f"thread {tag} round {round_index}")

        threads = [threading.Thread(target=hammer, args=(tag,)) for tag in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert op_registry._conv2d_band_count(
            [inputs[0], weight.data, bias.data], {"stride": 1, "padding": 1}
        ) == 3
        assert not failures
