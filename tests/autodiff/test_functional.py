"""Tests for the differentiable functions in repro.autodiff.functional."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    Tensor,
    TraceHandles,
    cross_entropy,
    dropout,
    gelu,
    log_softmax,
    margin_loss,
    mse_loss,
    nll_loss,
    numerical_gradient,
    relative_error,
    relu,
    sigmoid,
    softmax,
)
from repro.autodiff import ops
from repro.autodiff.ops import _SQRT_2_OVER_PI

from tests.autodiff.conftest import away_from, grad_check_settings, value_atol


def _grad_check(build, x0, tol=None):
    eps, default_tol = grad_check_settings()
    tol = tol if tol is not None else default_tol
    probe = {}

    def scalar(a):
        out = build(Tensor(a))
        if "p" not in probe:
            probe["p"] = np.random.default_rng(3).normal(size=out.shape)
        return float((out.data * probe["p"]).sum())

    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    if "p" not in probe:
        probe["p"] = np.random.default_rng(3).normal(size=out.shape)
    out.backward(probe["p"])
    numeric = numerical_gradient(scalar, x0.copy(), eps=eps)
    assert relative_error(t.grad, numeric) < tol


class TestActivations:
    @pytest.mark.parametrize(
        "fn", [relu, sigmoid, gelu, lambda t: softmax(t, axis=-1), lambda t: log_softmax(t, axis=-1)],
        ids=["relu", "sigmoid", "gelu", "softmax", "log_softmax"],
    )
    def test_gradients(self, fn, rng):
        # Keep samples clear of relu's kink at 0 (harmless for the others).
        _grad_check(fn, away_from(rng.normal(size=(4, 6))))

    def test_relu_forward_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self, rng):
        out = sigmoid(Tensor(rng.normal(size=(10,)) * 10))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_gelu_matches_definition_at_zero(self):
        assert gelu(Tensor(np.zeros(3))).data == pytest.approx(np.zeros(3))

    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=value_atol())

    def test_softmax_numerically_stable_for_large_logits(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0, -1000.0]])), axis=-1)
        assert np.isfinite(out.data).all()

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 5))
        a = log_softmax(Tensor(x), axis=-1).data
        b = np.log(softmax(Tensor(x), axis=-1).data)
        np.testing.assert_allclose(a, b, atol=value_atol())


def _kernel_ctx(x, saved, **fields):
    """The slice of an OpCall a single-input backward kernel reads."""
    return types.SimpleNamespace(needs=(True,), inputs=(x,), saved=saved, **fields)


class TestGeluKernel:
    """The tanh-approximation GELU kernel's numeric and buffer contract."""

    def _signed_inputs(self, dtype=np.float64):
        samples = np.random.default_rng(5).normal(size=4096) * 3.0
        return np.concatenate([np.linspace(-10.0, 10.0, 2001), samples]).astype(dtype)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="no extended-precision long double on this platform",
    )
    def test_forward_matches_extended_precision_reference(self):
        x = self._signed_inputs()
        y = ops.get("gelu").forward((x,), {}, {}, None)
        xl = x.astype(np.longdouble)
        u = np.longdouble(_SQRT_2_OVER_PI) * (xl + np.longdouble(0.044715) * xl * xl * xl)
        reference = np.longdouble(0.5) * xl * (1 + np.tanh(u))
        error = np.abs(y.astype(np.longdouble) - reference)
        bound = 2 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(x))
        assert np.all(error <= bound), float((error / bound).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_is_preserved(self, dtype):
        x = self._signed_inputs(dtype)
        saved = {}
        y = ops.get("gelu").forward((x,), {}, saved, None)
        (grad,) = ops.get("gelu").backward(_kernel_ctx(x, saved), np.ones_like(x))
        assert y.dtype == saved["t"].dtype == grad.dtype == dtype

    def test_out_path_returns_out(self):
        x = self._signed_inputs()
        out = np.empty_like(x)
        assert ops.get("gelu").forward((x,), {}, {}, out) is out
        np.testing.assert_array_equal(out, ops.get("gelu").forward((x,), {}, {}, None))

    def test_replay_refreshes_the_recorded_tanh_buffer(self):
        first = self._signed_inputs()
        second = first[::-1] * 0.5
        saved = {}
        ops.get("gelu").forward((first,), {}, saved, None)
        recorded = saved["t"]
        ops.get("gelu").forward((second,), {}, saved, None)
        fresh = {}
        ops.get("gelu").forward((second,), {}, fresh, None)
        assert saved["t"] is recorded
        np.testing.assert_array_equal(recorded, fresh["t"])

    @pytest.mark.parametrize(
        "dtype, grad_dtype",
        [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)],
    )
    def test_backward_bit_identical_to_closed_form(self, dtype, grad_dtype):
        x = self._signed_inputs(dtype)
        grad = np.random.default_rng(6).normal(size=x.shape).astype(grad_dtype)
        saved = {}
        ops.get("gelu").forward((x,), {}, saved, None)
        t = saved["t"]
        (actual,) = ops.get("gelu").backward(_kernel_ctx(x, saved), grad)
        du_dx = _SQRT_2_OVER_PI * (1 + 3 * 0.044715 * x**2)
        expected = grad * (0.5 * (1 + t) + 0.5 * x * ((1 - t**2) * du_dx))
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)

    def test_captured_replay_bit_identical_to_eager(self, rng):
        w1 = Tensor(rng.normal(size=(6, 16)), requires_grad=True, is_parameter=True)
        w2 = Tensor(rng.normal(size=(16, 3)), requires_grad=True, is_parameter=True)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            logits = gelu(gelu(x @ w1) * 2.0) @ w2
            labels = np.zeros(len(array), dtype=np.int64)
            return TraceHandles(
                objective=cross_entropy(logits, labels, reduction="sum"), input=x
            )

        eager, captured = EagerExecution(), CapturedExecution()
        for _ in range(4):
            batch = rng.normal(size=(5, 6)) * 3.0
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="gelu-mlp")
            np.testing.assert_array_equal(expected.objective.data, actual.objective.data)
            np.testing.assert_array_equal(expected.input.grad, actual.input.grad)
        assert captured.stats.replays == 2


class TestSoftmaxKernel:
    """The in-place softmax kernels reproduce the plain expressions bit for bit."""

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("layout", ["c", "fortran", "transposed"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_plain_expressions(self, rng, axis, layout, dtype):
        x = (rng.normal(size=(24, 40)) * 4.0).astype(dtype)
        x = {"c": x, "fortran": np.asfortranarray(x), "transposed": x.T}[layout]
        grad = rng.normal(size=x.shape).astype(dtype)
        exps = np.exp(x - x.max(axis=axis, keepdims=True))
        expected = exps / exps.sum(axis=axis, keepdims=True)
        expected_grad = expected * (grad - (grad * expected).sum(axis=axis, keepdims=True))
        params = {"axis": axis}
        out = np.empty(x.shape, dtype)
        for buffer in (None, out):
            data = ops.get("softmax").forward((x,), params, {}, buffer)
            np.testing.assert_array_equal(data, expected)
        assert data is out
        ctx = _kernel_ctx(x, {}, params=params, out_data=expected)
        (actual_grad,) = ops.get("softmax").backward(ctx, grad)
        assert actual_grad.dtype == dtype
        np.testing.assert_array_equal(actual_grad, expected_grad)


class TestLosses:
    def test_cross_entropy_gradient(self, rng):
        labels = rng.integers(0, 6, size=5)
        _grad_check(lambda t: cross_entropy(t, labels, reduction="sum"), rng.normal(size=(5, 6)))

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert float(loss.data) < 1e-6

    def test_cross_entropy_reductions_consistent(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        mean = float(cross_entropy(Tensor(logits), labels, reduction="mean").data)
        total = float(cross_entropy(Tensor(logits), labels, reduction="sum").data)
        per_sample = cross_entropy(Tensor(logits), labels, reduction="none").data
        assert total == pytest.approx(mean * 4)
        assert per_sample.shape == (4,)
        assert total == pytest.approx(per_sample.sum())

    def test_nll_rejects_unknown_reduction(self, rng):
        with pytest.raises(ValueError):
            nll_loss(log_softmax(Tensor(rng.normal(size=(2, 3)))), np.array([0, 1]), reduction="bogus")

    def test_margin_loss_gradient(self, rng):
        labels = rng.integers(0, 5, size=6)
        _grad_check(lambda t: margin_loss(t, labels, confidence=0.3), rng.normal(size=(6, 5)))

    def test_margin_loss_value_for_confident_correct_prediction(self):
        logits = np.array([[10.0, -10.0]])
        loss = margin_loss(Tensor(logits), np.array([0]), confidence=5.0)
        assert float(loss.data) == pytest.approx(-5.0)

    def test_margin_loss_positive_when_misclassified(self):
        logits = np.array([[0.0, 3.0]])
        loss = margin_loss(Tensor(logits), np.array([0]), confidence=0.0)
        assert float(loss.data) == pytest.approx(3.0)

    def test_mse_loss_values_and_gradient(self, rng):
        target = rng.normal(size=(3, 2))
        _grad_check(lambda t: mse_loss(t, target, reduction="sum"), rng.normal(size=(3, 2)))
        pred = Tensor(target.copy())
        assert float(mse_loss(pred, target).data) == pytest.approx(0.0)

    def test_mse_rejects_unknown_reduction(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.ones(3)), np.ones(3), reduction="bogus")


class TestDropout:
    def test_identity_in_eval_mode(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = dropout(x, rate=0.5, rng=rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_identity_with_zero_rate(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = dropout(x, rate=0.0, rng=rng, training=True)
        np.testing.assert_allclose(out.data, x.data)

    def test_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, rate=0.3, rng=rng, training=True)
        assert float(out.data.mean()) == pytest.approx(1.0, abs=0.05)

    def test_gradient_masked_like_forward(self, rng):
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        out = dropout(x, rate=0.5, rng=np.random.default_rng(0), training=True)
        out.sum().backward()
        # Positions dropped in the forward pass must receive zero gradient.
        dropped = out.data == 0.0
        assert np.all(x.grad[dropped] == 0.0)
        assert np.all(x.grad[~dropped] > 0.0)
