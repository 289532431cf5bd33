"""Tests for convolution / global pooling primitives and the attacker-side transposed conv."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    col2im,
    conv2d,
    conv_transpose2d_numpy,
    global_avg_pool2d,
    im2col,
    numerical_gradient,
    relative_error,
)

from repro.autodiff.conv import im2col_into

from tests.autodiff.conftest import grad_check_settings, value_atol, value_rtol


class TestIm2Col:
    def test_shapes(self, rng):
        images = rng.normal(size=(2, 3, 8, 8))
        col, out_h, out_w = im2col(images, 3, 3, stride=1, padding=1)
        assert (out_h, out_w) == (8, 8)
        assert col.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_stride_and_padding_output_size(self, rng):
        images = rng.normal(size=(1, 1, 7, 7))
        _, out_h, out_w = im2col(images, 3, 3, stride=2, padding=1)
        assert (out_h, out_w) == (4, 4)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """col2im must be the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(2, 2, 6, 6))
        col, out_h, out_w = im2col(x, 3, 3, stride=2, padding=1)
        y = rng.normal(size=col.shape)
        lhs = float((col * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, stride=2, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize(
    "n,h,w,kh,kw,stride,padding",
    [
        (1, 11, 11, 3, 3, 1, 1),
        (2, 16, 16, 3, 3, 1, 0),
        (1, 15, 15, 5, 5, 2, 2),  # stride > 1 with a wide padding
        (3, 9, 13, 3, 5, 2, 1),  # asymmetric kernel and image
        (1, 8, 8, 2, 2, 2, 0),
        (2, 7, 7, 3, 3, 1, 3),  # padding wider than half the kernel
    ],
)
class TestIm2ColInto:
    """The in-place unfold the per-sample conv bands use is a byte copy of
    :func:`im2col`."""

    def test_matches_im2col(self, rng, n, h, w, kh, kw, stride, padding):
        images = rng.normal(size=(n, 3, h, w))
        full, _, _ = im2col(images, kh, kw, stride, padding)
        out = np.full(full.shape, np.nan)
        im2col_into(images, kh, kw, stride, padding, out)
        assert out.tobytes() == full.tobytes()

    def test_each_call_unfolds_only_its_own_images(self, rng, n, h, w, kh, kw, stride, padding):
        """A second call sees none of the first call's values, padding included."""
        first = rng.normal(size=(n, 3, h, w)) + 100.0
        second = rng.normal(size=(n, 3, h, w))
        expected, _, _ = im2col(second, kh, kw, stride, padding)
        out = np.full(expected.shape, np.nan)
        im2col_into(first, kh, kw, stride, padding, out)
        im2col_into(second, kh, kw, stride, padding, out)
        assert out.tobytes() == expected.tobytes()


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = conv2d(x, w, None, stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv2d(Tensor(rng.normal(size=(1, 3, 4, 4))), Tensor(rng.normal(size=(2, 4, 3, 3))))

    def test_matches_manual_convolution_1x1(self, rng):
        """A 1x1 convolution is a per-pixel linear map over channels."""
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 3, 1, 1))
        out = conv2d(Tensor(x), Tensor(w)).data
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out, expected, atol=value_atol())

    def test_gradient_wrt_input_weight_and_bias(self, rng):
        x0 = rng.normal(size=(2, 3, 6, 6))
        w0 = rng.normal(size=(4, 3, 3, 3))
        b0 = rng.normal(size=(4,))
        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        probe = rng.normal(size=(2, 4, 3, 3))
        conv2d(x, w, b, stride=2, padding=1).backward(probe)

        def scalar_x(a):
            return float((conv2d(Tensor(a), Tensor(w0), Tensor(b0), stride=2, padding=1).data * probe).sum())

        def scalar_w(a):
            return float((conv2d(Tensor(x0), Tensor(a), Tensor(b0), stride=2, padding=1).data * probe).sum())

        def scalar_b(a):
            return float((conv2d(Tensor(x0), Tensor(w0), Tensor(a), stride=2, padding=1).data * probe).sum())

        eps, tol = grad_check_settings()
        assert relative_error(x.grad, numerical_gradient(scalar_x, x0.copy(), eps=eps)) < tol
        assert relative_error(w.grad, numerical_gradient(scalar_w, w0.copy(), eps=eps)) < tol
        assert relative_error(b.grad, numerical_gradient(scalar_b, b0.copy(), eps=eps)) < tol


class TestPooling:
    def test_global_avg_pool_shape_and_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 5, 5), 1.0 / 25.0))


class TestConvTranspose:
    def test_output_shape_matches_request(self, rng):
        adjoint = rng.normal(size=(2, 4, 8, 8))
        kernel = rng.normal(size=(4, 3, 1, 1))
        out = conv_transpose2d_numpy(adjoint, kernel, stride=1, padding=0, output_size=(8, 8))
        assert out.shape == (2, 3, 8, 8)

    def test_upsamples_spatially_with_stride(self, rng):
        adjoint = rng.normal(size=(1, 2, 4, 4))
        kernel = rng.normal(size=(2, 3, 2, 2))
        out = conv_transpose2d_numpy(adjoint, kernel, stride=2, padding=0)
        assert out.shape == (1, 3, 8, 8)

    def test_is_adjoint_of_conv2d(self, rng):
        """conv_transpose(w) must be the adjoint of conv2d(w): <conv(x), y> == <x, convT(y)>."""
        x = rng.normal(size=(1, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        y = rng.normal(size=(1, 4, 6, 6))
        forward = conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1).data
        backward = conv_transpose2d_numpy(y, w, stride=1, padding=1, output_size=(6, 6))
        assert float((forward * y).sum()) == pytest.approx(
            float((x * backward).sum()), rel=value_rtol()
        )

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv_transpose2d_numpy(rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(3, 1, 2, 2)))
