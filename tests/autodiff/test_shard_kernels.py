"""Bit-identity tests for per-sample conv2d bands.

A conv2d call whose batch has two or more samples and passes
:func:`repro.autodiff.ops.banded` (a pure function of shapes and FLOPs)
computes one im2col-GEMM per sample, in eager mode and in replays alike.
The invariants under test: **replayed forward values and gradients are
byte-identical to eager**, each sample's result does not depend on the rest
of the batch, and the banded kernel stays numerically correct.

Most fixtures lower :data:`repro.autodiff.ops.MIN_BAND_FLOPS` so small
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
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff.conv import conv2d
from repro.autodiff.numeric import numerical_gradient, relative_error
from repro.autodiff.tensor import unbroadcast

from tests.autodiff.conftest import window_pool


@pytest.fixture
def low_floor(monkeypatch):
    """Band every heavy kernel call the fixtures make, however small."""
    monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 1)


class TestBandedGate:
    def test_banded_is_shape_and_flop_driven(self):
        floor = op_registry.MIN_BAND_FLOPS
        assert not op_registry.banded(1, 10 * floor)  # one band = nothing to split
        assert op_registry.banded(2, floor)
        assert not op_registry.banded(2, floor - 1)
        # Many tiny bands fail the per-band floor even when the total passes.
        assert not op_registry.banded(floor, floor)

    def test_floor_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 100)
        assert not op_registry.banded(2, 99)
        assert op_registry.banded(2, 100)
        monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 1_000)
        assert not op_registry.banded(2, 100)


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
            step for step in recording._steps if step.call.op.name in ("conv2d", "matmul")
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
    ],
    ids=["conv2d-samples"],
)
class TestBandedMatchesWhole:
    """Banding moves last bits only: banded values stay close to whole-call
    values, forward and backward."""

    def _run(self, monkeypatch, floor, name, arrays, params, probe):
        monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", floor)
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
            monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 1)
            assert op_registry._conv2d_band_count(arrays, params) >= 2
            banded_out, banded_grads = self._run(monkeypatch, 1, name, arrays, params, probe)
            whole_out, whole_grads = self._run(monkeypatch, 10**18, name, arrays, params, probe)
        finally:
            set_default_dtype(previous)
        np.testing.assert_allclose(banded_out, whole_out, rtol=1e-12, atol=1e-12)
        for banded_grad, whole_grad in zip(banded_grads, whole_grads):
            np.testing.assert_allclose(banded_grad, whole_grad, rtol=1e-12, atol=1e-12)


class TestBandedGradcheck:
    """Numeric gradchecks of the banded conv2d path.

    The registry-wide gradcheck sweep runs under the default FLOP floor,
    where every sample stays whole; this re-runs conv2d's samples with the
    floor at 1 so the per-sample forward/backward code paths are the ones
    being differentiated.
    """

    @pytest.fixture(autouse=True)
    def _banded_float64(self, monkeypatch):
        monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", 1)
        previous = get_default_dtype()
        set_default_dtype("float64")
        yield
        set_default_dtype(previous)

    @pytest.mark.parametrize("name", ["conv2d"])
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


_BANDED_GEOMETRIES = pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding",
    [
        ((12, 64, 16, 16), (128, 64, 3, 3), 1, 1),
        ((6, 3, 32, 32), (64, 3, 7, 7), 2, 3),
        ((4, 256, 8, 8), (256, 256, 1, 1), 1, 0),
    ],
    ids=["3x3", "7x7-s2p3", "1x1"],
)


@pytest.fixture
def default_dtype(dtype):
    previous = get_default_dtype()
    set_default_dtype(dtype)
    yield dtype
    set_default_dtype(previous)


@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@_BANDED_GEOMETRIES
class TestConvBandBatchInvariance:
    """Under the default floor, each sample's result is the one it would get
    alone: ``conv2d(x)[i] == conv2d(x[i:i+1])`` byte for byte, forward and
    ``grad_x`` — the per-sample band is one sample's whole-call GEMM."""

    def test_sample_matches_its_single_sample_call(
        self, rng, default_dtype, bias, x_shape, w_shape, stride, padding
    ):
        dtype = default_dtype
        x = (rng.normal(size=x_shape) * 0.5).astype(dtype)
        weight = Tensor((rng.normal(size=w_shape) * 0.1).astype(dtype))
        offset = Tensor((rng.normal(size=w_shape[:1]) * 0.1).astype(dtype)) if bias else None
        params = {"stride": stride, "padding": padding}
        assert op_registry._conv2d_band_count([x, weight.data], params) == x_shape[0]

        def run(images, probe=None):
            tensor = Tensor(images, requires_grad=True)
            out = conv2d(tensor, weight, offset, stride=stride, padding=padding)
            probe = rng.normal(size=out.shape).astype(dtype) if probe is None else probe
            out.backward(probe)
            return out.data, np.array(tensor.grad), probe

        batch_out, batch_grad, probe = run(x)
        for index in range(x_shape[0]):
            single_out, single_grad, _ = run(x[index : index + 1], probe[index : index + 1])
            assert batch_out[index].tobytes() == single_out[0].tobytes(), f"sample {index}"
            assert batch_grad[index].tobytes() == single_grad[0].tobytes(), f"sample {index}"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@_BANDED_GEOMETRIES
class TestConvParameterGradsIgnoreBands:
    """``grad_weight`` and ``grad_bias`` are one whole GEMM and one sum over
    the batch, so they are byte-identical whether the forward banded or not
    (the per-sample unfold assembles the same ``col`` matrix)."""

    def test_banded_and_whole_parameter_grads_are_equal(
        self, rng, monkeypatch, default_dtype, x_shape, w_shape, stride, padding
    ):
        dtype = default_dtype
        x = (rng.normal(size=x_shape) * 0.5).astype(dtype)
        w = (rng.normal(size=w_shape) * 0.1).astype(dtype)
        b = (rng.normal(size=w_shape[:1]) * 0.1).astype(dtype)
        probe = None
        grads = []
        for floor in (op_registry.MIN_BAND_FLOPS, 10**30):
            monkeypatch.setattr(op_registry, "MIN_BAND_FLOPS", floor)
            weight = Tensor(w.copy(), requires_grad=True)
            offset = Tensor(b.copy(), requires_grad=True)
            out = conv2d(Tensor(x), weight, offset, stride=stride, padding=padding)
            if probe is None:
                probe = rng.normal(size=out.shape).astype(dtype)
            out.backward(probe)
            grads.append((np.array(weight.grad).tobytes(), np.array(offset.grad).tobytes()))
        assert grads[0] == grads[1]


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [((150, 12), (12, 7)), ((3, 5, 4), (4, 2)), ((3, 5, 4), (3, 4, 2)), ((2, 3, 5, 4), (4, 6))],
    ids=["2d", "stacked-lhs", "stacked-both", "4d-lhs"],
)
class TestMatmulIsOneNumpyCall:
    """matmul forward and both gradients are single ``np.matmul`` calls, so
    they match NumPy byte for byte at any row count or stacking."""

    def test_forward_and_grads_match_numpy(self, rng, low_floor, a_shape, b_shape):
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        out = a @ b
        probe = rng.normal(size=out.shape).astype(out.dtype)
        out.backward(probe)
        assert out.data.tobytes() == np.matmul(a.data, b.data).tobytes()
        grad_a = np.matmul(probe, np.swapaxes(b.data, -1, -2))
        grad_b = unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), probe), b_shape)
        assert np.array(a.grad).tobytes() == grad_a.tobytes()
        assert np.array(b.grad).tobytes() == grad_b.tobytes()
