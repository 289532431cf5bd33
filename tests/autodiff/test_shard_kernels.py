"""Bit-identity tests for canonical batch banding of heavyweight kernels.

conv2d and matmul compute in *canonical bands* whenever their shapes pass
:func:`repro.autodiff.banding.banded` (a pure function of shapes and FLOPs),
in eager mode and in replays alike.  The invariant under test: **replayed
forward values and gradients are byte-identical to eager**, and the banded
kernels stay numerically correct.

Most fixtures lower :data:`repro.autodiff.banding.MIN_BAND_FLOPS` so small
test tensors band; the floor is read per call, so each test's recordings and
replays see one consistent value.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    Tensor,
    TraceHandles,
    frozen_parameters,
    get_default_dtype,
    set_default_dtype,
)
from repro.autodiff import banding
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff.capture import _ReplayNode
from repro.autodiff.conv import conv2d
from repro.autodiff.numeric import numerical_gradient, relative_error

from tests.autodiff.conftest import window_pool


@pytest.fixture
def low_floor(monkeypatch):
    """Band every heavy kernel call the fixtures make, however small."""
    monkeypatch.setattr(banding, "MIN_BAND_FLOPS", 1)


class TestBandedGate:
    def test_banded_is_shape_and_flop_driven(self):
        floor = banding.MIN_BAND_FLOPS
        assert not banding.banded(1, 10 * floor)  # one band = nothing to split
        assert banding.banded(2, floor)
        assert not banding.banded(2, floor - 1)
        # Many tiny bands fail the per-band floor even when the total passes.
        assert not banding.banded(floor, floor)

    def test_matmul_below_one_band_stays_whole(self, rng):
        """2-D matmuls under the canonical band height never band."""
        a, b = rng.normal(size=(32, 64)), rng.normal(size=(64, 16))
        node = op_registry.apply("matmul", [Tensor(a), Tensor(b)])
        assert op_registry._matmul_band_count(a.shape, b.shape) == 0
        landed = tuple(t.data for t in node._op_call.tensors)
        assert node.data.tobytes() == (landed[0] @ landed[1]).tobytes()

    def test_floor_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(banding, "MIN_BAND_FLOPS", 100)
        assert not banding.banded(2, 99)
        assert banding.banded(2, 100)
        monkeypatch.setattr(banding, "MIN_BAND_FLOPS", 1_000)
        assert not banding.banded(2, 100)

    @pytest.mark.parametrize(
        "rows,units",
        [(64, 0), (65, 2), (128, 2), (129, 3), (200, 4)],
    )
    def test_matmul_bands_are_ragged_aware(self, rng, low_floor, rows, units):
        """64-row bands with a short tail; one band or less stays whole."""
        a, b = rng.normal(size=(rows, 8)), rng.normal(size=(8, 3))
        assert op_registry._matmul_band_count(a.shape, b.shape) == units
        node = op_registry.apply("matmul", [Tensor(a), Tensor(b)])
        landed = tuple(t.data for t in node._op_call.tensors)
        for r0 in range(0, rows, banding.MATMUL_BAND_ROWS):
            r1 = min(r0 + banding.MATMUL_BAND_ROWS, rows)
            expected = landed[0][r0:r1] @ landed[1] if units else (landed[0] @ landed[1])[r0:r1]
            assert node.data[r0:r1].tobytes() == expected.tobytes()

    def test_stacked_matmul_bands_per_sample(self, low_floor):
        assert op_registry._matmul_band_count((3, 5, 4), (4, 2)) == 3
        assert op_registry._matmul_band_count((3, 5, 4), (3, 4, 2)) == 3
        # A stacked rhs whose leading axis differs from the lhs stays whole.
        assert op_registry._matmul_band_count((3, 5, 4), (1, 4, 2)) == 0


def _tower_weights(rng, dtype):
    return {
        "w1": Tensor(rng.normal(size=(8, 3, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "b1": Tensor(rng.normal(size=(8,)).astype(dtype) * 0.1,
                     requires_grad=True, is_parameter=True),
        "w2": Tensor(rng.normal(size=(8, 8, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "head": Tensor(rng.normal(size=(128, 5)).astype(dtype) * 0.2,
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


class TestCapturedTowerParity:
    def test_replayed_tower_grads_match_eager(self, rng, low_floor):
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="tower")
            assert expected.objective.data.tobytes() == actual.objective.data.tobytes(), (
                f"trial={trial}"
            )
            assert np.array(expected.input.grad).tobytes() == np.array(actual.input.grad).tobytes(), (
                f"trial={trial}"
            )
        assert captured.stats.replays >= 2

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_replayed_tower_grads_match_eager_in_each_dtype(self, rng, low_floor, dtype):
        previous = get_default_dtype()
        set_default_dtype(dtype)
        try:
            weights = _tower_weights(rng, dtype)
            trace = _tower_trace(weights)
            eager, captured = EagerExecution(), CapturedExecution()
            for trial in range(3):
                batch = rng.normal(size=(4, 3, 16, 16)).astype(dtype)
                grads = []
                for backend in (eager, captured):
                    for tensor in weights.values():
                        tensor.grad = None
                    handles = backend.run(trace, batch, key=f"tower-{dtype}")
                    grads.append(
                        [np.array(handles.input.grad)]
                        + [np.array(tensor.grad) for tensor in weights.values()]
                    )
                assert grads[1][0].dtype == np.dtype(dtype)
                for expected, actual in zip(*grads):
                    assert expected.tobytes() == actual.tobytes(), f"trial={trial}"
            assert captured.stats.replays == 1
        finally:
            set_default_dtype(previous)

    def test_banded_steps_replay_in_place(self, rng, low_floor):
        """Heavy conv2d/matmul steps write their recorded buffer directly:
        the kernel returns the buffer itself, so no copy is ever needed."""
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        captured = CapturedExecution()
        batch = rng.normal(size=(8, 3, 16, 16)).astype(dtype)
        for _ in range(4):
            captured.run(trace, batch, key="tower-in-place")
        recording = next(iter(captured._recordings.values()))
        heavy = [
            step
            for step in recording._plan.steps
            if isinstance(step, _ReplayNode) and step.call.op.name in ("conv2d", "matmul")
        ]
        assert len(heavy) == 3
        for step in heavy:
            assert step.out is step.node.data
            assert step.call.kernel(out=step.out) is step.node.data
            assert step.needs_copy is None  # never had to decide on a copy

    def test_frozen_parameters_skip_weight_grads_in_sharded_replays(self, rng, low_floor):
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        with frozen_parameters(weights.values()):
            for trial in range(4):
                batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
                expected = eager.run(trace, batch)
                actual = captured.run(trace, batch, key="tower-frozen")
                assert np.array(expected.input.grad).tobytes() == np.array(actual.input.grad).tobytes(), (
                    f"trial={trial}"
                )
        assert captured.stats.replays >= 2
        for tensor in weights.values():
            assert tensor.grad is None


@pytest.mark.parametrize(
    "name,shapes,params",
    [
        ("conv2d", [(4, 3, 9, 9), (5, 3, 3, 3), (5,)], {"stride": 2, "padding": 1}),
        ("conv2d", [(1, 3, 11, 11), (4, 3, 3, 3)], {"stride": 1, "padding": 1}),
        ("matmul", [(150, 12), (12, 7)], {}),
    ],
    ids=["conv2d-samples", "conv2d-spatial", "matmul-rows"],
)
class TestBandedMatchesWhole:
    """Banding moves last bits only: banded values stay close to whole-call
    values, forward and backward."""

    def _run(self, monkeypatch, floor, name, arrays, params, probe):
        monkeypatch.setattr(banding, "MIN_BAND_FLOPS", floor)
        tensors = [Tensor(array.copy(), requires_grad=True) for array in arrays]
        out = op_registry.apply(name, tensors, dict(params))
        out.backward(probe)
        return out.data.copy(), [np.array(tensor.grad) for tensor in tensors]

    def test_banded_call_matches_whole_call(self, monkeypatch, name, shapes, params):
        previous = get_default_dtype()
        set_default_dtype("float64")
        try:
            rng = np.random.default_rng(11)
            arrays = [rng.normal(size=shape) for shape in shapes]
            out_shape = op_registry.apply(name, [Tensor(a) for a in arrays], dict(params)).shape
            probe = rng.normal(size=out_shape)
            monkeypatch.setattr(banding, "MIN_BAND_FLOPS", 1)
            if name == "conv2d":
                assert op_registry._conv2d_band_count(arrays, params) >= 2
            else:
                assert op_registry._matmul_band_count(shapes[0], shapes[1]) >= 2
            banded_out, banded_grads = self._run(monkeypatch, 1, name, arrays, params, probe)
            whole_out, whole_grads = self._run(monkeypatch, 10**18, name, arrays, params, probe)
        finally:
            set_default_dtype(previous)
        np.testing.assert_allclose(banded_out, whole_out, rtol=1e-12, atol=1e-12)
        for banded_grad, whole_grad in zip(banded_grads, whole_grads):
            np.testing.assert_allclose(banded_grad, whole_grad, rtol=1e-12, atol=1e-12)


class TestBandedGradcheck:
    """Numeric gradchecks of the banded kernel paths.

    The registry-wide gradcheck sweep runs under the default FLOP floor,
    where most samples stay whole; these re-run the heavy ops' samples with
    the floor at 1 so the banded forward/backward code paths are the ones
    being differentiated.
    """

    @pytest.fixture(autouse=True)
    def _banded_float64(self, monkeypatch):
        monkeypatch.setattr(banding, "MIN_BAND_FLOPS", 1)
        previous = get_default_dtype()
        set_default_dtype("float64")
        yield
        set_default_dtype(previous)

    @pytest.mark.parametrize("name", ["conv2d", "matmul"])
    def test_banded_gradcheck(self, name):
        op = op_registry.get(name)
        for sample in op.samples:
            seed = zlib.crc32(f"banded:{name}:{sample.shapes}".encode())
            arrays = [
                np.random.default_rng(seed + i).uniform(sample.low, sample.high, size=shape)
                for i, shape in enumerate(sample.shapes)
            ]
            tensors = [Tensor(array.copy(), requires_grad=True) for array in arrays]
            output = op_registry.apply(op, tensors, dict(sample.params))
            probe = np.random.default_rng(seed + 99).normal(size=output.shape)
            output.backward(probe)
            for position, tensor in enumerate(tensors):
                def scalar(array: np.ndarray) -> float:
                    operands = [Tensor(a.copy()) for a in arrays]
                    operands[position] = Tensor(array)
                    out = op_registry.apply(op, operands, dict(sample.params))
                    return float((out.data * probe).sum())

                numeric = numerical_gradient(scalar, arrays[position].copy())
                error = relative_error(tensor.grad, numeric)
                assert error < 1e-5, f"{name} input {position}: {error:.2e}"
