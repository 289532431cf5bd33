"""Registry-driven numeric gradient checks.

Every :class:`~repro.autodiff.ops.Op` in the registry is auto-parametrised
over its declared :class:`~repro.autodiff.ops.GradSample` configurations
(shapes, params, sampling range), so a new kernel *cannot ship* without
gradcheck coverage: an op registered with neither ``samples`` nor an explicit
``gradcheck_skip`` reason fails the enforcement test below.

Numeric differentiation needs double precision regardless of the suite's
``REPRO_DTYPE`` leg, so these tests pin the default dtype to float64 — the
float32 behaviour of the same kernels is covered by the dtype and replay
tests.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.autodiff import ops as op_registry
from repro.autodiff.numeric import numerical_gradient, relative_error
from repro.autodiff.tensor import Tensor, get_default_dtype, set_default_dtype

TOL = 1e-5


@pytest.fixture(autouse=True)
def _float64_default():
    previous = get_default_dtype()
    set_default_dtype("float64")
    yield
    set_default_dtype(previous)


def _cases():
    cases = []
    for name in op_registry.registered_ops():
        op = op_registry.get(name)
        for index, sample in enumerate(op.samples):
            cases.append(pytest.param(name, sample, id=f"{name}-{index}"))
    return cases


def _sample_inputs(sample, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.uniform(sample.low, sample.high, size=shape) for shape in sample.shapes]


@pytest.mark.parametrize("name,sample", _cases())
def test_registered_op_gradcheck(name, sample):
    """Analytic gradients of every registered op match finite differences."""
    op = op_registry.get(name)
    seed = zlib.crc32(f"{name}:{sample.shapes}:{sorted(map(str, sample.params))}".encode())
    arrays = _sample_inputs(sample, seed)
    tensors = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    output = op_registry.apply(op, tensors, dict(sample.params))
    probe = np.random.default_rng(seed + 1).normal(size=output.shape)
    output.backward(probe)
    for position, tensor in enumerate(tensors):
        def scalar(array: np.ndarray) -> float:
            operands = [Tensor(a.copy()) for a in arrays]
            operands[position] = Tensor(array)
            out = op_registry.apply(op, operands, dict(sample.params))
            return float((out.data * probe).sum())

        numeric = numerical_gradient(scalar, arrays[position].copy())
        error = relative_error(tensor.grad, numeric)
        assert error < TOL, f"{name} input {position}: relative error {error:.2e}"


def test_every_registered_op_declares_gradcheck_coverage():
    """New kernels must ship samples (or an explicit, documented skip)."""
    for name in op_registry.registered_ops():
        op = op_registry.get(name)
        assert op.samples or op.gradcheck_skip, (
            f"op {name!r} is registered with neither gradcheck samples nor a "
            "gradcheck_skip reason; derive sample shapes from its shape rule"
        )
        if not op.samples:
            assert isinstance(op.gradcheck_skip, str) and op.gradcheck_skip


def test_sample_shapes_drive_real_dispatches():
    """Samples must be executable: forward runs and shapes are consistent."""
    for name in op_registry.registered_ops():
        op = op_registry.get(name)
        for sample in op.samples:
            arrays = _sample_inputs(sample, seed=0)
            output = op_registry.apply(op, [Tensor(a) for a in arrays], dict(sample.params))
            assert output.op == name
            assert np.isfinite(output.data).all()
