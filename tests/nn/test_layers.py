"""Shape and gradient tests for the layer library."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, numerical_gradient, relative_error
from repro.nn import (
    GELU,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GroupNorm,
    LayerNorm,
    Linear,
    ReLU,
    WSConv2d,
    ZeroPad2d,
)

TOL = 1e-5


def _layer_grad_check(layer, x0, tol=TOL):
    probe = {}

    def scalar(a):
        out = layer(Tensor(a))
        if "p" not in probe:
            probe["p"] = np.random.default_rng(11).normal(size=out.shape)
        return float((out.data * probe["p"]).sum())

    tensor = Tensor(x0.copy(), requires_grad=True)
    out = layer(tensor)
    if "p" not in probe:
        probe["p"] = np.random.default_rng(11).normal(size=out.shape)
    out.backward(probe["p"])
    numeric = numerical_gradient(scalar, x0.copy())
    assert relative_error(tensor.grad, numeric) < tol


class TestLinear:
    def test_output_shape_2d(self, rng):
        assert Linear(6, 3)(Tensor(rng.normal(size=(4, 6)))).shape == (4, 3)

    def test_output_shape_3d(self, rng):
        assert Linear(6, 3)(Tensor(rng.normal(size=(2, 5, 6)))).shape == (2, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradient(self, rng):
        _layer_grad_check(Linear(5, 3), rng.normal(size=(4, 5)))

    def test_parameter_gradients_flow(self, rng):
        layer = Linear(3, 2)
        layer(Tensor(rng.normal(size=(4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConvLayers:
    def test_conv_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1)
        assert layer(Tensor(rng.normal(size=(2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_conv_gradient(self, rng):
        _layer_grad_check(Conv2d(2, 4, 3, padding=1), rng.normal(size=(2, 2, 5, 5)))

    def test_wsconv_weight_is_standardised(self, rng):
        layer = WSConv2d(3, 4, 3, padding=1)
        # Forward with a probe input and inspect that the effective kernel used
        # has (approximately) zero mean per output channel by checking the
        # output is invariant to adding a constant to the raw weight.
        x = Tensor(rng.normal(size=(1, 3, 6, 6)))
        baseline = layer(x).data.copy()
        layer.weight.data = layer.weight.data + 5.0  # constant shift
        shifted = layer(x).data
        np.testing.assert_allclose(baseline, shifted, atol=1e-8)

    def test_wsconv_gradient(self, rng):
        _layer_grad_check(WSConv2d(2, 3, 3, padding=1), rng.normal(size=(1, 2, 5, 5)))

    def test_zero_pad(self, rng):
        out = ZeroPad2d(2)(Tensor(rng.normal(size=(1, 3, 4, 4))))
        assert out.shape == (1, 3, 8, 8)
        np.testing.assert_allclose(out.data[:, :, :2, :], 0.0)


class TestNormalisation:
    def test_layernorm_normalises_last_dim(self, rng):
        out = LayerNorm(16)(Tensor(rng.normal(size=(4, 16)) * 5 + 3)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_gradient(self, rng):
        _layer_grad_check(LayerNorm(8), rng.normal(size=(3, 8)))

    def test_batchnorm_train_normalises_batch(self, rng):
        layer = BatchNorm2d(3)
        out = layer(Tensor(rng.normal(size=(8, 3, 4, 4)) * 3 + 1)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    def test_batchnorm_updates_running_stats(self, rng):
        layer = BatchNorm2d(3)
        before = layer.running_mean.copy()
        layer(Tensor(rng.normal(size=(8, 3, 4, 4)) + 2.0))
        assert not np.allclose(layer.running_mean, before)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(3)
        layer(Tensor(rng.normal(size=(8, 3, 4, 4))))
        layer.eval()
        x = rng.normal(size=(2, 3, 4, 4))
        out1 = layer(Tensor(x)).data
        out2 = layer(Tensor(x)).data
        np.testing.assert_allclose(out1, out2)

    def test_groupnorm_requires_divisible_channels(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_groupnorm_gradient(self, rng):
        _layer_grad_check(GroupNorm(2, 4), rng.normal(size=(2, 4, 3, 3)))


class TestActivationsAndDropout:
    @pytest.mark.parametrize("layer", [ReLU(), GELU()], ids=["relu", "gelu"])
    def test_activation_shapes(self, layer, rng):
        x = rng.normal(size=(3, 7))
        assert layer(Tensor(x)).shape == (3, 7)

    def test_dropout_eval_is_identity(self, rng):
        layer = Dropout(0.5)
        layer.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_dropout_train_zeroes_some_entries(self, rng):
        layer = Dropout(0.5)
        out = layer(Tensor(np.ones((20, 20)))).data
        assert (out == 0.0).sum() > 0
