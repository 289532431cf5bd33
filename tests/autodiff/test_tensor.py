"""Gradient-correctness and graph-mechanics tests for the Tensor engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    concat,
    no_grad,
    numerical_gradient,
    relative_error,
    stack,
    topological_order,
    unbroadcast,
)

from tests.autodiff.conftest import away_from, grad_check_settings


def check_gradient(build, x0: np.ndarray, tol: float | None = None) -> None:
    """Compare the analytic input gradient of ``build`` against finite differences."""
    eps, default_tol = grad_check_settings()
    tol = tol if tol is not None else default_tol
    probe_holder = {}

    def scalar(array: np.ndarray) -> float:
        out = build(Tensor(array))
        if "probe" not in probe_holder:
            probe_holder["probe"] = np.random.default_rng(0).normal(size=out.shape)
        return float((out.data * probe_holder["probe"]).sum())

    tensor = Tensor(x0.copy(), requires_grad=True)
    output = build(tensor)
    if "probe" not in probe_holder:
        probe_holder["probe"] = np.random.default_rng(0).normal(size=output.shape)
    output.backward(probe_holder["probe"])
    numeric = numerical_gradient(scalar, x0.copy(), eps=eps)
    assert relative_error(tensor.grad, numeric) < tol


class TestArithmeticGradients:
    @pytest.mark.parametrize(
        "build",
        [
            lambda t: t + 2.0,
            lambda t: 2.0 + t,
            lambda t: t - 1.5,
            lambda t: 1.5 - t,
            lambda t: t * 3.0,
            lambda t: t / 2.0,
            lambda t: 2.0 / (t + 3.0),
            lambda t: -t,
            lambda t: t**3,
            lambda t: t.abs(),
            lambda t: t.exp(),
            lambda t: (t + 3.0).log(),
            lambda t: (t + 3.0).sqrt(),
            lambda t: t.tanh(),
            lambda t: t.maximum(0.1),
            lambda t: t.minimum(0.3),
        ],
        ids=[
            "add", "radd", "sub", "rsub", "mul", "div", "rdiv", "neg", "pow",
            "abs", "exp", "log", "sqrt", "tanh", "maximum", "minimum",
        ],
    )
    def test_unary_and_scalar_ops(self, build, rng):
        # Clear every kink any of the parametrised ops has (0 for relu-like
        # ops and the pow zero-gradient point, 0.1 / 0.3 for the thresholds).
        check_gradient(build, away_from(rng.normal(size=(3, 4)), points=(0.0, 0.1, 0.3)))

    def test_tensor_tensor_binary_ops(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: t * other + other / (t + 5.0), rng.normal(size=(3, 4)))

    def test_broadcast_add_gradient(self, rng):
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = (x + bias).sum()
        out.backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_matmul_gradient(self, rng):
        weight = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda t: t @ weight, rng.normal(size=(3, 4)))

    def test_batched_matmul_gradient(self, rng):
        weight = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda t: t @ weight, rng.normal(size=(2, 3, 4)))

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(3)) ** Tensor(np.ones(3))


class TestReductionGradients:
    @pytest.mark.parametrize(
        "build",
        [
            lambda t: t.sum(),
            lambda t: t.sum(axis=0),
            lambda t: t.sum(axis=1, keepdims=True),
            lambda t: t.mean(),
            lambda t: t.mean(axis=(0, 1), keepdims=True),
            lambda t: t.max(),
            lambda t: t.max(axis=1),
        ],
        ids=["sum", "sum_axis", "sum_keep", "mean", "mean_axes", "max", "max_axis"],
    )
    def test_reductions(self, build, rng):
        check_gradient(build, rng.normal(size=(4, 5)))


class TestShapeGradients:
    @pytest.mark.parametrize(
        "build",
        [
            lambda t: t.reshape(6, 2),
            lambda t: t.reshape(-1),
            lambda t: t.transpose((1, 0)),
            lambda t: t.swapaxes(0, 1),
            lambda t: t[1:, :2],
            lambda t: t[:, 0],
            lambda t: t.pad([(1, 0), (2, 1)]),
        ],
        ids=["reshape", "flatten", "transpose", "swapaxes", "slice", "index", "pad"],
    )
    def test_shape_ops(self, build, rng):
        check_gradient(build, rng.normal(size=(3, 4)))

    def test_concat_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = concat([a, b], axis=0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = (stack([a, b], axis=0) * 2.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))


class TestGraphMechanics:
    def test_gradient_accumulates_across_multiple_uses(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (x * 2.0 + x * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_disables_graph(self):
        with no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * 2.0
        assert not x.requires_grad
        assert not y.requires_grad
        assert y.backward_fn is None

    def test_detach_breaks_graph(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        y.sum()
        assert not y.requires_grad

    def test_zero_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_keeps_leaf_and_retained_grads_only(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        hidden = x * 2.0
        kept = hidden.tanh()
        kept.retains_grad = True
        out = (kept * 3.0).sum()
        out.backward()
        assert hidden.grad is None and out.grad is None
        np.testing.assert_allclose(kept.grad, np.full(3, 3.0))
        np.testing.assert_allclose(x.grad, 6.0 * (1.0 - np.tanh(2.0 * x.data) ** 2))

    def test_topological_order_parents_before_children(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2.0
        z = (y + 1.0).sum()
        order = topological_order(z)
        positions = {node.node_id: index for index, node in enumerate(order)}
        assert positions[x.node_id] < positions[y.node_id] < positions[z.node_id]

    def test_node_ids_unique_and_increasing(self):
        a = Tensor(np.ones(2))
        b = Tensor(np.ones(2))
        assert b.node_id > a.node_id

    def test_repr_mentions_shape(self):
        assert "shape=(2, 3)" in repr(Tensor(np.ones((2, 3))))

    def test_input_and_parameter_flags(self):
        x = Tensor(np.ones(3), is_input=True)
        w = Tensor(np.ones(3), is_parameter=True)
        assert x.is_input and not x.is_parameter
        assert w.is_parameter and not w.is_input

    def test_backward_with_custom_seed_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        y = x * 3.0
        seed = np.array([[1.0, 0.0], [0.0, 2.0]])
        y.backward(seed)
        np.testing.assert_allclose(x.grad, 3.0 * seed)


class TestUnbroadcast:
    def test_identity_when_shapes_match(self, rng):
        grad = rng.normal(size=(3, 4))
        np.testing.assert_allclose(unbroadcast(grad, (3, 4)), grad)

    def test_sums_leading_dimensions(self, rng):
        grad = rng.normal(size=(5, 3, 4))
        np.testing.assert_allclose(unbroadcast(grad, (3, 4)), grad.sum(axis=0))

    def test_sums_size_one_dimensions(self, rng):
        grad = rng.normal(size=(3, 4))
        np.testing.assert_allclose(unbroadcast(grad, (3, 1)), grad.sum(axis=1, keepdims=True))

    def test_scalar_target(self, rng):
        grad = rng.normal(size=(3, 4))
        np.testing.assert_allclose(unbroadcast(grad, ()), grad.sum())
