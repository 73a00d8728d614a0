import contextlib
import gc
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from daplab import tensor as tc
from daplab.errors import DimensionError


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, a NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# independent reference implementations (kept loop-based on purpose)


def conv2d_loops(x, k, stride=1, padding=0):
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for b in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[b, ci, oy * stride + ky, ox * stride + kx] \
                                    * k[co, ci, ky, kx]
                    out[b, co, oy, ox] = acc
    return out


def conv2d_windows(x, k, stride, padding, g):
    """(out, dx, dk) of a conv whose output gradient is g, with im2col
    columns from sliding_window_view's 6-d transpose-reshape. Its backward
    matmuls are tc.conv2d's transposed or with rows permuted (tc.conv2d
    takes dk as columns[b] @ g[b].T summed over samples and builds the
    column gradient tap-major), so each element is the same dot product
    taken in the same index order, and the two agree bit for bit."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2:]
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, cin * kh * kw, ho * wo)
    kmat = k.reshape(cout, cin * kh * kw)
    out = (kmat @ cols).reshape(n, cout, ho, wo)
    g3 = g.reshape(n, cout, ho * wo)
    dk = (g3 @ cols.transpose(0, 2, 1)).sum(0).reshape(k.shape)
    dcols = (kmat.T @ g3).reshape(n, cin, kh, kw, ho, wo)
    dxp = np.zeros((n, cin, hp, wp))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
    return out, dxp[:, :, padding:padding + h, padding:padding + w], dk


def conv2d_with_grads(x, k, stride, padding, g):
    """(output tensor, dx, dk) of tc.conv2d for output gradient g."""
    out = tc.conv2d(tc.Tensor(x, requires_grad=True), tc.Tensor(k, requires_grad=True),
                    stride=stride, padding=padding)
    dx, dk = out.op.backward_fn(g)
    return out, dx, dk


def bilinear_loops(x, out_h, out_w):
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * (h / out_h) - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * (w / out_w) - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, oy, ox] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                                 + (1 - fy) * fx * x[:, :, y0, x1]
                                 + fy * (1 - fx) * x[:, :, y1, x0]
                                 + fy * fx * x[:, :, y1, x1])
    return out


def cross_entropy_loops(logits, labels, ignore_id=255):
    n, c, h, w = logits.shape
    acc, count = 0.0, 0
    for b in range(n):
        for y in range(h):
            for x in range(w):
                lab = labels[b, y, x]
                if lab == ignore_id:
                    continue
                z = logits[b, :, y, x]
                m = max(z)
                log_z = m + math.log(sum(math.exp(v - m) for v in z))
                acc += log_z - z[lab]
                count += 1
    return acc / count


def sse_loops(a, b):
    if a.ndim == 1:
        return float(sum((float(u) - float(v)) ** 2 for u, v in zip(a, b)))
    positions = a.size // a.shape[1]
    flat_a = np.moveaxis(a, 1, -1).reshape(-1, a.shape[1])
    flat_b = np.moveaxis(b, 1, -1).reshape(-1, b.shape[1])
    acc = 0.0
    for u, v in zip(flat_a, flat_b):
        acc += sum((float(p) - float(q)) ** 2 for p, q in zip(u, v))
    return acc / positions


def finite_difference(loss_fn, param, eps=1e-4):
    """Central-difference gradient of loss_fn() w.r.t. param.data."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = loss_fn()
        flat[i] = keep - eps
        lo = loss_fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def relative_error(analytic, numeric):
    denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / denom


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_all_ones_sums_kernel_window(self):
        x = tc.Tensor(np.ones((1, 1, 3, 3)))
        k = tc.Tensor(np.ones((1, 1, 3, 3)))
        out = tc.conv2d(x, k)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = tc.Tensor(rng.normal(size=(1, 1, 5, 4)))
        k = tc.Tensor(np.ones((1, 1, 1, 1)))
        out = tc.conv2d(x, k)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        k = rng.normal(size=(3, 2, 3, 3))
        out = tc.conv2d(tc.Tensor(x), tc.Tensor(k), stride=1, padding=1)
        np.testing.assert_allclose(out.data, conv2d_loops(x, k, 1, 1), atol=1e-12)

    @pytest.mark.parametrize("stride,padding,kernel", [
        pytest.param(1, 0, (3, 3), id="1-0"),
        pytest.param(2, 1, (3, 3), id="2-1"),
        pytest.param(2, 0, (3, 3), id="2-0"),
        pytest.param(2, 1, (1, 1), id="2-1-1x1"),
        pytest.param(2, 1, (2, 3), id="2-1-2x3"),
    ])
    def test_strided_matches_loop_reference(self, stride, padding, kernel):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.normal(size=(2, 3, 6, 5))
        k = rng.normal(size=(4, 3, *kernel))
        out = tc.conv2d(tc.Tensor(x), tc.Tensor(k), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, conv2d_loops(x, k, stride, padding), atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", [((2, 3), 2, 1), ((1, 1), 2, 1),
                                                       ((1, 1), 1, 0)],
                             ids=["2x3-2-1", "1x1-2-1", "1x1-1-0"])
    def test_input_and_kernel_gradients_match_finite_differences(self, kernel, stride,
                                                                  padding):
        rng = np.random.default_rng(20)
        x = tc.Tensor(rng.normal(size=(2, 3, 6, 5)), requires_grad=True)
        k = tc.Tensor(rng.normal(size=(4, 3, *kernel)), requires_grad=True)
        ref = tc.Tensor(rng.normal(size=tc.conv2d(x, k, stride, padding).shape))

        def loss_fn():
            return tc.sum_squared_error(tc.conv2d(x, k, stride, padding), ref)

        tc.backward(loss_fn())
        for p in (x, k):
            numeric = finite_difference(lambda: loss_fn().item(), p)
            assert relative_error(p.grad, numeric) < 1e-3

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("kernel", [(1, 1), (1, 3), (2, 3), (3, 3)],
                             ids=["1x1", "1x3", "2x3", "3x3"])
    def test_output_and_gradients_equal_window_view_im2col(self, n, stride, padding,
                                                           kernel):
        rng = np.random.default_rng(100 * stride + 10 * padding + n)
        x = rng.normal(size=(n, 3, 7, 5))
        k = rng.normal(size=(4, 3, *kernel))
        ho = (7 + 2 * padding - kernel[0]) // stride + 1
        wo = (5 + 2 * padding - kernel[1]) // stride + 1
        g = rng.normal(size=(n, 4, ho, wo))
        out, dx, dk = conv2d_with_grads(x, k, stride, padding, g)
        ref_out, ref_dx, ref_dk = conv2d_windows(x, k, stride, padding, g)
        np.testing.assert_array_equal(out.data, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(dk, ref_dk)

    def test_a_conv_between_forward_and_backward_leaves_results_intact(self):
        # a larger conv B runs its forward and backward between conv A's
        # forward and A's backward: A's results equal A run alone, and none
        # of them shares memory with B's
        rng = np.random.default_rng(31)
        xa, ka = rng.normal(size=(1, 2, 6, 5)), rng.normal(size=(3, 2, 3, 3))
        xb, kb = rng.normal(size=(2, 4, 16, 16)), rng.normal(size=(5, 4, 3, 3))
        ga = rng.normal(size=(1, 3, 6, 5))
        gb = rng.normal(size=(2, 5, 16, 16))
        alone = conv2d_with_grads(xa, ka, 1, 1, ga)

        a = tc.conv2d(tc.Tensor(xa, requires_grad=True), tc.Tensor(ka, requires_grad=True),
                      stride=1, padding=1)
        b_out, b_dx, b_dk = conv2d_with_grads(xb, kb, 1, 1, gb)
        dx, dk = a.op.backward_fn(ga)
        for got, want in zip((a.data, dx, dk), (alone[0].data, *alone[1:])):
            np.testing.assert_array_equal(got, want)
            for other in (b_out.data, b_dx, b_dk):
                assert not np.shares_memory(got, other)

    @pytest.mark.parametrize("x_shape,k_shape,stride,padding", [
        ((2, 3, 64, 64), (16, 3, 3, 3), 1, 1),
        ((2, 16, 64, 64), (32, 16, 3, 3), 2, 1),
        ((2, 32, 32, 32), (32, 32, 3, 3), 2, 1),
        ((2, 32, 16, 16), (6, 32, 1, 1), 1, 0),
    ], ids=["conv1", "conv2", "conv3", "head"])
    def test_float32_gradients_at_training_shapes_match_float64(self, x_shape, k_shape,
                                                               stride, padding):
        rng = np.random.default_rng(sum(x_shape) + sum(k_shape))
        x = rng.normal(size=x_shape).astype(np.float32)
        k = rng.normal(size=k_shape).astype(np.float32)
        h, w = x_shape[2:]
        ho = (h + 2 * padding - k_shape[2]) // stride + 1
        wo = (w + 2 * padding - k_shape[3]) // stride + 1
        g = rng.normal(size=(x_shape[0], k_shape[0], ho, wo)).astype(np.float32)
        _, dx, dk = conv2d_with_grads(x, k, stride, padding, g)
        _, ref_dx, ref_dk = conv2d_windows(*(a.astype(np.float64) for a in (x, k)),
                                           stride, padding, g.astype(np.float64))
        assert dx.dtype == dk.dtype == np.float32
        # float32 carries about 7 digits; these sums run over up to 8192 terms
        assert relative_error(dx, ref_dx) < 1e-5
        assert relative_error(dk, ref_dk) < 1e-5

    def test_a_record_holds_its_columns_until_its_backward_runs(self):
        # tracemalloc counts numpy's data buffers; a 3x3 conv's columns are
        # nine times its input. backward consumes the graph, so the columns
        # go while the root is still held
        rng = np.random.default_rng(32)
        x = tc.Tensor(rng.normal(size=(2, 16, 32, 32)).astype(np.float32))
        k = tc.Tensor(rng.normal(size=(8, 16, 3, 3)).astype(np.float32),
                      requires_grad=True)
        cols_bytes = x.data.nbytes * 9
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with tc.no_grad():
                out = tc.conv2d(x, k, stride=1, padding=1)
            assert tracemalloc.get_traced_memory()[0] - base < out.data.nbytes + cols_bytes // 4
            del out

            loss = tc.total(tc.relu(tc.conv2d(x, k, stride=1, padding=1)))
            assert tracemalloc.get_traced_memory()[0] - base > cols_bytes
            tc.backward(loss)
            assert tracemalloc.get_traced_memory()[0] - base < cols_bytes // 4
            assert loss.op is not None
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_a_relu_of_a_conv_keeps_no_conv_output_once_the_forward_returns(self):
        # the graph keeps the conv's columns and the ReLU's 1-byte mask,
        # which their backwards read; the conv's output nobody reads is freed
        rng = np.random.default_rng(33)
        x = tc.Tensor(rng.normal(size=(2, 16, 32, 32)).astype(np.float32))
        k = tc.Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32),
                      requires_grad=True)
        cols_bytes = x.data.nbytes * 9
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            act = tc.relu(tc.conv2d(x, k, stride=1, padding=1))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        out_bytes = act.data.nbytes
        assert cols_bytes + out_bytes <= kept < cols_bytes + out_bytes + out_bytes // 2, kept

    def test_channel_mismatch_raises(self):
        x = tc.Tensor(np.zeros((1, 2, 4, 4)))
        k = tc.Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(DimensionError):
            tc.conv2d(x, k)

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(DimensionError):
            tc.conv2d(tc.Tensor(np.zeros((1, 1, 2, 2))), tc.Tensor(np.zeros((1, 1, 3, 3))))


# ---------------------------------------------------------------------------
# relu


class TestRelu:
    def test_clamps_negatives(self):
        out = tc.relu(tc.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_positive_tensor_unchanged(self):
        x = np.abs(np.random.default_rng(2).normal(size=(3, 4))) + 0.1
        np.testing.assert_array_equal(tc.relu(tc.Tensor(x)).data, x)

    def test_gradient_mask(self):
        x = tc.Tensor([-1.0, 2.0], requires_grad=True)
        tc.backward(tc.total(tc.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_subgradient_at_zero_is_zero(self):
        x = tc.Tensor([0.0], requires_grad=True)
        tc.backward(tc.total(tc.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_negative_zero_maps_to_positive_zero(self):
        out = tc.relu(tc.Tensor([-0.0, 0.0, -1.0]))
        assert not np.signbit(out.data).any()

    def test_nan_propagates(self):
        out = tc.relu(tc.Tensor([np.nan, -1.0, 2.0]))
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_and_gradient_equal_the_input_mask_formula(self, dtype):
        # the gradient was g * (x > 0); the record now derives the mask from
        # the output, which must agree on signed zeros, NaN and infinities
        x = np.array([-0.0, 0.0, np.nan, -np.nan, -1.5, 2.0, np.inf, -np.inf,
                      1e-40, -1e-40], dtype)
        upstream = np.array([-1.0, 2.0, -3.0, 0.5, -0.25, 4.0, 1.0, -1.0,
                             -2.0, -7.0], dtype)
        xt = tc.Tensor(x, requires_grad=True)
        out = tc.relu(xt)
        tc.backward(tc.total(tc.mul(out, tc.Tensor(upstream))))
        assert same_bits(out.data, np.maximum(x, 0.0))
        assert same_bits(xt.grad, upstream * (x > 0.0))

    def test_record_keeps_one_bool_mask_and_not_its_output(self):
        x = tc.Tensor(np.random.default_rng(3).normal(size=(2, 4, 5)), requires_grad=True)
        out = tc.relu(x)
        held = [cell.cell_contents for cell in out.op.backward_fn.__closure__]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert len(arrays) == 1
        assert arrays[0].dtype == np.bool_ and arrays[0].shape == out.shape
        assert not np.shares_memory(arrays[0], out.data)
        np.testing.assert_array_equal(arrays[0], out.data > 0)

    def test_no_grad_makes_no_mask(self):
        # the mask of a float32 output is a quarter of its bytes
        x = tc.Tensor(np.random.default_rng(4).normal(size=(8, 64, 64)).astype(np.float32),
                      requires_grad=True)
        out_bytes = x.data.nbytes
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            peaks = {}
            for grad in (False, True):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                with contextlib.nullcontext() if grad else tc.no_grad():
                    out = tc.relu(x)
                peaks[grad] = tracemalloc.get_traced_memory()[1] - base
                del out
        finally:
            tracemalloc.stop()
            gc.enable()
        assert out_bytes <= peaks[False] < out_bytes + out_bytes // 8, peaks
        assert peaks[True] >= out_bytes + out_bytes // 4, peaks

    def test_no_grad_output_equals_the_grad_mode_output(self):
        x = np.array([-0.0, np.nan, 3.0, -2.0, 0.0], np.float32)
        with tc.no_grad():
            quiet = tc.relu(tc.Tensor(x, requires_grad=True))
        assert quiet.op is None and not quiet.requires_grad
        assert same_bits(quiet.data, tc.relu(tc.Tensor(x, requires_grad=True)).data)


# ---------------------------------------------------------------------------
# bilinear_resize


class TestBilinearResize:
    def test_constant_preserved(self):
        x = tc.Tensor(np.full((1, 1, 5, 7), 7.0))
        out = tc.bilinear_resize(x, 3, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 2), 7.0))

    def test_2x2_to_single_pixel_is_corner_average(self):
        x = tc.Tensor(np.array([[[[0.0, 1.0], [2.0, 3.0]]]]))
        out = tc.bilinear_resize(x, 1, 1)
        assert out.data[0, 0, 0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_ramp_matches_scalar_reference(self):
        ramp = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = tc.bilinear_resize(tc.Tensor(ramp), 2, 2)
        np.testing.assert_allclose(out.data, bilinear_loops(ramp, 2, 2), atol=1e-12)

    def test_upsample_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 3, 3))
        out = tc.bilinear_resize(tc.Tensor(x), 7, 5)
        np.testing.assert_allclose(out.data, bilinear_loops(x, 7, 5), atol=1e-12)

    def test_same_size_is_identity_exactly(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        out = tc.bilinear_resize(tc.Tensor(x), 6, 6)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("resize", [tc.bilinear_resize, tc.nearest_resize],
                             ids=["bilinear", "nearest"])
    @pytest.mark.parametrize("out_h, out_w", [(4, 3), (9, 13)], ids=["down", "up"])
    def test_non_square_gradient_matches_finite_differences(self, resize, out_h, out_w):
        rng = np.random.default_rng(5)
        x = tc.Tensor(rng.normal(size=(1, 2, 6, 10)), requires_grad=True)
        anchor = tc.Tensor(rng.normal(size=(1, 2, out_h, out_w)))

        def loss_fn():
            return tc.sum_squared_error(resize(x, out_h, out_w), anchor)

        tc.backward(loss_fn())
        numeric = finite_difference(lambda: loss_fn().item(), x)
        assert relative_error(x.grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# softmax_cross_entropy


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = tc.Tensor(np.zeros((1, 4, 2, 2)))
        labels = np.array([[[0, 1], [2, 3]]])
        loss = tc.softmax_cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_correct_logits_vanish(self):
        labels = np.array([[[1, 0], [2, 1]]])
        logits = np.zeros((1, 3, 2, 2))
        for y in range(2):
            for x in range(2):
                logits[0, labels[0, y, x], y, x] = 20.0
        loss = tc.softmax_cross_entropy(tc.Tensor(logits), labels)
        assert loss.item() < 1e-8

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = rng.integers(0, 3, size=(1, 2, 2))
        loss = tc.softmax_cross_entropy(tc.Tensor(logits), labels)
        assert loss.item() == pytest.approx(cross_entropy_loops(logits, labels), abs=1e-12)

    def test_ignored_pixels_contribute_nothing(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = np.array([[[0, 255], [255, 2]]])
        loss = tc.softmax_cross_entropy(tc.Tensor(logits), labels)
        assert loss.item() == pytest.approx(cross_entropy_loops(logits, labels), abs=1e-12)

    def test_all_ignored_raises(self):
        with pytest.raises(DimensionError):
            tc.softmax_cross_entropy(tc.Tensor(np.zeros((1, 3, 2, 2))),
                                     np.full((1, 2, 2), 255))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_bit_identical_to_the_fancy_index_formula(self, dtype):
        # exp(log_probs) * valid/count, minus 1/count at each valid pixel's
        # label, written with np.nonzero fancy indexing
        rng = np.random.default_rng(8)
        data = (3 * rng.normal(size=(2, 6, 9, 7))).astype(dtype)
        labels = rng.integers(0, 6, size=(2, 9, 7)).astype(np.uint8)
        labels[rng.uniform(size=labels.shape) < 0.2] = 255
        logits = tc.Tensor(data, requires_grad=True)
        tc.backward(tc.softmax_cross_entropy(logits, labels))

        valid = labels != 255
        count = int(valid.sum())
        shifted = data - data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        soft = np.exp(log_probs)
        expected = soft * (valid[:, None] / soft.dtype.type(count))
        nz = np.nonzero(valid)
        expected[nz[0], labels[valid].astype(np.int64), nz[1], nz[2]] -= 1.0 / count
        assert logits.grad.dtype == dtype
        np.testing.assert_array_equal(logits.grad, expected * 1.0)


    @staticmethod
    def take_along_axis_formula(data, labels, upstream):
        """The loss and logit gradient as computed with an int64 label copy,
        boolean-indexed range checks and take/put_along_axis."""
        n, c, h, w = data.shape
        valid = labels != 255
        count = int(valid.sum())
        lab = labels.astype(np.int64)
        assert lab[valid].min() >= 0 and lab[valid].max() < c
        log_probs = data - data.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        safe_lab = np.where(valid, lab, 0)
        picked = np.take_along_axis(log_probs, safe_lab[:, None], axis=1)[:, 0]
        loss = np.float64(-(picked[valid].sum(dtype=np.float64)) / count)
        soft = np.exp(log_probs)
        grad = soft * (valid[:, None] / soft.dtype.type(count))
        flat = grad.reshape(n, c, h * w)
        at_label = safe_lab.reshape(n, 1, h * w)
        picked_grad = np.take_along_axis(flat, at_label, axis=1)
        np.subtract(picked_grad, 1.0 / count, out=picked_grad,
                    where=valid.reshape(n, 1, h * w))
        np.put_along_axis(flat, at_label, picked_grad, axis=1)
        return loss, grad * float(upstream)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("label_dtype", [np.uint8, np.uint16, np.int32, np.int64,
                                             np.float64])
    def test_value_and_gradient_are_bit_identical_to_the_take_along_axis_formula(
            self, dtype, label_dtype):
        rng = np.random.default_rng(31)
        data = (4 * rng.normal(size=(2, 6, 11, 9))).astype(dtype)
        labels = rng.integers(0, 6, size=(2, 11, 9)).astype(np.uint8)
        labels[rng.uniform(size=labels.shape) < 0.25] = 255
        labels = labels.astype(label_dtype)
        if label_dtype == np.float64:
            labels[labels != 255] += 0.5      # astype truncates 2.5 to class 2
        logits = tc.Tensor(data, requires_grad=True)
        loss = tc.softmax_cross_entropy(logits, labels)
        tc.backward(tc.scale(loss, -0.37))
        expected_loss, expected_grad = self.take_along_axis_formula(data, labels, -0.37)
        assert same_bits(loss.data, expected_loss)
        assert same_bits(logits.grad, expected_grad)

    def test_label_out_of_range_raises(self):
        logits = tc.Tensor(np.zeros((1, 3, 2, 2)))
        for bad in (3, -1):
            labels = np.array([[[0, 255], [bad, 1]]])
            with pytest.raises(DimensionError, match="out of range"):
                tc.softmax_cross_entropy(logits, labels)


# ---------------------------------------------------------------------------
# sum_squared_error


class TestSumSquaredError:
    def test_equal_inputs_give_zero(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(1, 4, 3, 3))
        assert tc.sum_squared_error(tc.Tensor(a), tc.Tensor(a.copy())).item() == 0.0

    def test_single_position_hand_value(self):
        loss = tc.sum_squared_error(tc.Tensor([1.0, 2.0]), tc.Tensor([0.0, 0.0]))
        assert loss.item() == 5.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 3, 4, 4))
        loss = tc.sum_squared_error(tc.Tensor(a), tc.Tensor(b))
        assert loss.item() == pytest.approx(sse_loops(a, b), abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            tc.sum_squared_error(tc.Tensor(np.zeros((1, 2))), tc.Tensor(np.zeros((2, 1))))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(1, 2, 2, 2)), rng.normal(size=(1, 2, 2, 2))
        fwd = tc.sum_squared_error(tc.Tensor(a), tc.Tensor(b)).item()
        rev = tc.sum_squared_error(tc.Tensor(b), tc.Tensor(a)).item()
        assert fwd == pytest.approx(rev, abs=0)


# ---------------------------------------------------------------------------
# reshape


class TestReshape:
    def test_views_the_input_in_row_major_order(self):
        x = tc.Tensor(np.arange(24.0).reshape(1, 4, 6, 1))
        out = tc.reshape(x, (4, 6, 1, 1))
        assert out.shape == (4, 6, 1, 1) and np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(out.data.reshape(-1), x.data.reshape(-1))

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_through_a_reshaped_kernel(self, seed):
        # a conv's [1,P,C,1] output used as a [P,C,1,1] kernel, and a leaf
        # reshaped directly
        rng = np.random.default_rng(40 + seed)
        table = tc.Tensor(rng.normal(size=(1, 5, 3, 1)))
        w = tc.Tensor(rng.normal(size=(4, 5, 1, 1)) * 0.6, requires_grad=True)
        x = tc.Tensor(rng.uniform(size=(2, 12, 4)), requires_grad=True)
        target = tc.Tensor(rng.normal(size=(2, 4, 4, 4)))

        def loss_fn():
            anchors = tc.reshape(tc.conv2d(table, w), (4, 3, 1, 1))
            return tc.sum_squared_error(
                tc.conv2d(tc.reshape(x, (2, 3, 4, 4)), anchors), target)

        tc.backward(loss_fn())
        for p in (w, x):
            numeric = finite_difference(lambda: loss_fn().item(), p, eps=1e-4)
            assert relative_error(p.grad, numeric) < 1e-3

    @pytest.mark.parametrize("shape", [(4, 2), (2, 3, 2), (-1, -6)])
    def test_a_shape_of_another_size_raises(self, shape):
        with pytest.raises(DimensionError, match="reshape"):
            tc.reshape(tc.Tensor(np.zeros((2, 3))), shape)


# ---------------------------------------------------------------------------
# backward


def two_layer_loss(x, k1, k2, labels):
    h1 = tc.relu(tc.conv2d(x, k1, stride=1, padding=1))
    logits = tc.bilinear_resize(tc.conv2d(h1, k2), 8, 8)
    return tc.softmax_cross_entropy(logits, labels)


class TestBackward:
    def test_weighted_sum_gradient_is_input(self):
        rng = np.random.default_rng(10)
        x = tc.Tensor(rng.normal(size=(5,)))
        w = tc.Tensor(rng.normal(size=(5,)), requires_grad=True)
        tc.backward(tc.total(tc.mul(w, x)))
        np.testing.assert_array_equal(w.grad, x.data)

    def test_non_scalar_root_raises(self):
        x = tc.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            tc.backward(tc.relu(x))

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = tc.Tensor(rng.normal(size=(1, 3, 8, 8)))
        k1 = tc.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
        k2 = tc.Tensor(rng.normal(size=(3, 4, 1, 1)) * 0.5, requires_grad=True)
        labels = rng.integers(0, 3, size=(1, 8, 8))

        tc.backward(two_layer_loss(x, k1, k2, labels))
        for p in (k1, k2):
            numeric = finite_difference(
                lambda: two_layer_loss(x, k1, k2, labels).item(), p)
            assert relative_error(p.grad, numeric) < 1e-3

    def test_repeat_with_reset_is_deterministic(self):
        rng = np.random.default_rng(12)
        x = tc.Tensor(rng.normal(size=(1, 2, 4, 4)))
        k = tc.Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        labels = rng.integers(0, 2, size=(1, 2, 2))

        def run():
            loss = tc.softmax_cross_entropy(tc.conv2d(x, k), labels)
            tc.backward(loss)
            grad = k.grad.copy()
            tc.reset_gradients([k])
            return grad

        first, second = run(), run()
        np.testing.assert_array_equal(first, second)

    def test_two_graphs_without_reset_accumulate(self):
        x = tc.Tensor([1.0, 2.0])
        w = tc.Tensor([3.0, 4.0], requires_grad=True)
        for _ in range(2):
            tc.backward(tc.total(tc.mul(w, x)))
        np.testing.assert_array_equal(w.grad, 2 * x.data)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        x = tc.Tensor(rng.normal(size=(1, 2, 4, 4)))
        k = tc.Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        labels = rng.integers(0, 2, size=(1, 2, 2))
        ref = tc.Tensor(rng.normal(size=(1, 2, 2, 2)))

        def losses():
            out = tc.conv2d(x, k)
            return tc.softmax_cross_entropy(out, labels), tc.sum_squared_error(out, ref)

        a, b = 0.7, -1.3
        l1, l2 = losses()
        tc.backward(tc.add(tc.scale(l1, a), tc.scale(l2, b)))
        combined = k.grad.copy()
        tc.reset_gradients([k])

        l1, l2 = losses()
        tc.backward(l1)
        g1 = k.grad.copy()
        tc.reset_gradients([k])
        l1, l2 = losses()
        tc.backward(l2)
        g2 = k.grad.copy()

        np.testing.assert_allclose(combined, a * g1 + b * g2, atol=1e-10)

    def test_no_grad_suppresses_recording(self):
        x = tc.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with tc.no_grad():
            out = tc.relu(x)
        assert out.op is None and not out.requires_grad

    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        # a graph that only the cyclic collector frees stays alive for an
        # allocation-dependent number of steps, and with it every activation
        rng = np.random.default_rng(14)
        x = tc.Tensor(rng.normal(size=(1, 3, 8, 8)))
        k1 = tc.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        k2 = tc.Tensor(rng.normal(size=(3, 4, 1, 1)), requires_grad=True)
        labels = rng.integers(0, 3, size=(1, 8, 8))
        gc.collect()
        gc.disable()
        try:
            tc.backward(two_layer_loss(x, k1, k2, labels))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_interleaved_graphs_keep_their_gradients_apart(self):
        # graph A's consumers of w and of h are created in an order unlike the
        # order a walk from its root discovers them, and graph B's ops are
        # created between them; integer values make every summation order exact
        def build(interleave):
            w = tc.Tensor([1.0, -2.0, 3.0], requires_grad=True)
            v = tc.Tensor([2.0, -1.0, 0.5], requires_grad=True)
            x = tc.Tensor([2.0, 5.0, -1.0])
            h = tc.scale(w, 2.0)
            q = tc.relu(v) if interleave else None
            c3 = tc.mul(w, w)
            r = tc.scale(q, -1.0) if interleave else None
            c1 = tc.mul(h, x)
            c2 = tc.relu(h)
            s = tc.total(tc.mul(q, x)) if interleave else None
            c4 = tc.mul(h, w)
            loss_a = tc.add(tc.add(tc.total(c1), tc.total(c2)),
                            tc.add(tc.total(c4), tc.total(c3)))
            loss_b = tc.add(s, tc.total(r)) if interleave else None
            return w, v, x, loss_a, loss_b

        w, v, x, loss_a, loss_b = build(interleave=True)
        tc.backward(loss_a)
        # d/dw of 2wx + relu(2w) + 2w^2 + w^2
        expected = 2 * x.data + 2 * (w.data > 0) + 6 * w.data
        np.testing.assert_array_equal(w.grad, expected)
        assert v.grad is None and x.grad is None

        alone_w, _, _, alone_loss, _ = build(interleave=False)
        tc.backward(alone_loss)
        np.testing.assert_array_equal(w.grad, alone_w.grad)

        tc.backward(loss_b)
        np.testing.assert_array_equal(v.grad, (v.data > 0) * (x.data - 1.0))
        np.testing.assert_array_equal(w.grad, expected)

    def test_shared_weight_grad_sums_both_uses(self):
        w = tc.Tensor([2.0], requires_grad=True)
        x = tc.Tensor([3.0])
        loss = tc.add(tc.total(tc.mul(w, x)), tc.total(tc.mul(w, w)))
        tc.backward(loss)
        np.testing.assert_allclose(w.grad, [3.0 + 4.0], atol=1e-12)

    def test_a_root_that_requires_a_gradient_gets_ones(self):
        w = tc.Tensor([1.0, -2.0], requires_grad=True)
        root = tc.total(tc.scale(w, 3.0))
        tc.backward(root)
        assert same_bits(root.grad, np.float64(1.0))
        assert same_bits(w.grad, np.array([3.0, 3.0]))

        leaf = tc.Tensor(np.float32(2.5), requires_grad=True)
        tc.backward(leaf)
        assert same_bits(leaf.grad, np.float32(1.0))

        constant = tc.Tensor(2.5)
        tc.backward(constant)
        assert constant.grad is None

    def test_intermediates_get_no_gradient(self):
        rng = np.random.default_rng(15)
        x = tc.Tensor(rng.normal(size=(1, 2, 6, 6)))
        k = tc.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        conv = tc.conv2d(x, k, padding=1)
        act = tc.relu(conv)
        up = tc.bilinear_resize(act, 12, 12)
        tc.backward(tc.total(tc.scale(up, 0.5)))
        assert k.grad is not None and x.grad is None
        assert [t.grad for t in (conv, act, up)] == [None, None, None]

    def test_a_record_keeps_producers_and_leaves_not_its_input_tensors(self):
        x = tc.Tensor(np.ones((1, 1, 3, 3)))
        k = tc.Tensor(np.ones((2, 1, 1, 1)), requires_grad=True)
        conv = tc.conv2d(x, k)
        act = tc.relu(conv)
        assert conv.op.sinks[0] is None and conv.op.sinks[1] is k
        assert len(act.op.sinks) == 1 and act.op.sinks[0] is conv.op

    def test_an_output_feeding_two_ops_sums_its_gradients_at_its_producer(self):
        # integer values keep every sum exact
        w = tc.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        x = tc.Tensor([2.0, 5.0, -1.0])
        h = tc.scale(w, 3.0)
        tc.backward(tc.add(tc.total(tc.mul(h, x)), tc.total(tc.relu(h))))
        # dloss/dh = x + (h > 0), and h = 3w
        assert same_bits(w.grad, 3.0 * (x.data + (h.data > 0)))
        assert h.grad is None

    def test_a_parameter_used_by_two_ops_gets_both_gradients(self):
        rng = np.random.default_rng(16)
        xa, xb = (tc.Tensor(rng.normal(size=(1, 2, 5, 5))) for _ in range(2))
        k = tc.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def loss_of(x):
            return tc.total(tc.relu(tc.conv2d(x, k, padding=1)))

        tc.backward(tc.add(loss_of(xa), loss_of(xb)))
        both = k.grad
        alone = []
        for x in (xa, xb):
            tc.reset_gradients([k])
            tc.backward(loss_of(x))
            alone.append(k.grad)
        assert same_bits(both, alone[0] + alone[1])

    def test_a_second_backward_on_a_consumed_root_raises_and_keeps_the_gradients(self):
        # the helper's intermediate tensors are gone when backward runs; the
        # records and their closures hold all that backward reads, and the
        # first backward consumes them
        rng = np.random.default_rng(17)
        k1 = tc.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
        k2 = tc.Tensor(rng.normal(size=(3, 4, 1, 1)) * 0.5, requires_grad=True)
        labels = rng.integers(0, 3, size=(2, 8, 8))

        def build():
            x = tc.Tensor(rng.normal(size=(2, 3, 8, 8)))
            h = tc.relu(tc.conv2d(x, k1, stride=2, padding=1))
            logits = tc.bilinear_resize(tc.conv2d(h, k2), 8, 8)
            return tc.add(
                tc.softmax_cross_entropy(tc.take_batch(logits, 0), labels[0:1]),
                tc.scale(tc.softmax_cross_entropy(tc.take_batch(logits, 1), labels[1:2]),
                         0.5))

        loss = build()
        tc.backward(loss)
        once = [t.grad.copy() for t in (k1, k2, loss)]
        with pytest.raises(RuntimeError, match="consumed"):
            tc.backward(loss)
        assert all(same_bits(t.grad, g) for t, g in zip((k1, k2, loss), once))

    def test_a_root_sharing_a_consumed_record_raises_before_any_gradient_moves(self):
        w = tc.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        v = tc.Tensor([0.5, 0.5, 0.5], requires_grad=True)
        h = tc.scale(w, 3.0)
        tc.backward(tc.total(h))
        once = w.grad.copy()
        with pytest.raises(RuntimeError, match="consumed scale record"):
            tc.backward(tc.add(tc.total(tc.mul(v, v)), tc.total(h)))
        assert same_bits(w.grad, once) and v.grad is None


class TestGradientSuiteAllOps:
    """Central finite differences against every differentiable op, several
    seeds each."""

    @pytest.mark.parametrize("seed", range(10))
    def test_composite_graph(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = tc.Tensor(rng.normal(size=(1, 2, 8, 8)))
        k1 = tc.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.6, requires_grad=True)
        k2 = tc.Tensor(rng.normal(size=(2, 3, 1, 1)) * 0.6, requires_grad=True)
        labels = rng.integers(0, 2, size=(1, 8, 8))
        anchor = tc.Tensor(rng.normal(size=(1, 2, 4, 4)))

        def loss_fn():
            h = tc.relu(tc.conv2d(x, k1, stride=2, padding=1))     # [1,3,4,4]
            z = tc.conv2d(h, k2)                                   # [1,2,4,4]
            up = tc.bilinear_resize(z, 8, 8)
            ce = tc.softmax_cross_entropy(up, labels)
            match = tc.sum_squared_error(z, anchor)
            return tc.add(ce, tc.scale(match, 0.5))

        tc.backward(loss_fn())
        for p in (k1, k2):
            numeric = finite_difference(lambda: loss_fn().item(), p, eps=1e-4)
            assert relative_error(p.grad, numeric) < 1e-3
            tc.reset_gradients([p])


# ---------------------------------------------------------------------------
# dtype contract: each op computes in its inputs' dtype

SCALAR_REDUCTIONS = ("total", "softmax_cross_entropy", "sum_squared_error")


def op_case(op, dtype):
    """(inputs, output) of `op` on random leaves of `dtype` that require
    gradients."""
    rng = np.random.default_rng(3)

    def leaf(*shape):
        return tc.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    a, b = leaf(2, 3, 6, 4), leaf(2, 3, 6, 4)
    labels = rng.integers(0, 3, size=(2, 6, 4))
    labels[0, 0, 0] = 255
    kernel3, kernel1 = leaf(4, 3, 3, 3), leaf(4, 3, 1, 1)
    build = {
        "add": lambda: tc.add(a, b),
        "scale": lambda: tc.scale(a, 0.3),
        "mul": lambda: tc.mul(a, b),
        "total": lambda: tc.total(a),
        "relu": lambda: tc.relu(a),
        "take_batch": lambda: tc.take_batch(a, 1),
        "reshape": lambda: tc.reshape(a, (3, 2, 24)),
        "conv2d_3x3": lambda: tc.conv2d(a, kernel3, stride=2, padding=1),
        "conv2d_1x1": lambda: tc.conv2d(a, kernel1),
        "bilinear_resize": lambda: tc.bilinear_resize(a, 3, 7),
        "nearest_resize": lambda: tc.nearest_resize(a, 9, 2),
        "softmax_cross_entropy": lambda: tc.softmax_cross_entropy(a, labels),
        "sum_squared_error": lambda: tc.sum_squared_error(a, b),
    }
    inputs = {"add": (a, b), "mul": (a, b), "sum_squared_error": (a, b),
              "conv2d_3x3": (a, kernel3), "conv2d_1x1": (a, kernel1)}
    return inputs.get(op, (a,)), build[op]()


DTYPE_OPS = ("add", "scale", "mul", "total", "relu", "take_batch", "reshape",
             "conv2d_3x3", "conv2d_1x1", "bilinear_resize", "nearest_resize",
             "softmax_cross_entropy", "sum_squared_error")


class TestDtypeContract:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", DTYPE_OPS)
    def test_output_and_input_gradients_follow_the_inputs(self, op, dtype):
        inputs, out = op_case(op, dtype)
        scalar = op in SCALAR_REDUCTIONS
        # the scalar reductions accumulate into float64; every other output keeps dtype
        assert out.data.dtype == (np.float64 if scalar else dtype)
        # the op's own backward, fed the upstream gradient backward() feeds it:
        # a float64 0-d one for a scalar, one of the output's dtype otherwise
        for grad in out.op.backward_fn(np.ones_like(out.data)):
            assert grad.dtype == dtype
        tc.backward(out if scalar else tc.total(out))
        for t in inputs:
            assert t.grad.dtype == dtype

    @pytest.mark.parametrize("data, dtype", [
        (np.zeros(3, dtype=np.float32), np.float32),
        (np.zeros(3), np.float64),
        (np.zeros(3, dtype=np.float16), np.float64),
        (np.arange(3), np.float64),
        ([1.0, 2.0], np.float64),
        (np.float32(1.5), np.float32)])
    def test_tensor_keeps_float32_and_makes_anything_else_float64(self, data, dtype):
        assert tc.Tensor(data).data.dtype == dtype

    @pytest.mark.parametrize("size, stride, padding", [(3, 1, 1), (3, 2, 0), (1, 1, 0)])
    def test_a_constant_input_takes_its_kernels_dtype(self, size, stride, padding):
        # bit for bit the conv of the input rounded to float32 first, in the
        # output and in the kernel gradient its columns make
        rng = np.random.default_rng(40)
        x = rng.normal(size=(2, 3, 6, 7))
        weights = rng.normal(size=(4, 3, size, size)).astype(np.float32)
        results = []
        for image in (x, x.astype(np.float32)):
            kernel = tc.Tensor(weights.copy(), requires_grad=True)
            out = tc.conv2d(tc.Tensor(image), kernel, stride=stride, padding=padding)
            tc.backward(tc.total(tc.mul(out, out)))
            results.append((out.data, kernel.grad))
        (out, grad), (want, want_grad) = results
        assert out.dtype == grad.dtype == np.float32
        assert out.tobytes() == want.tobytes() and grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("padding", [0, 1])
    def test_an_input_that_needs_a_gradient_keeps_its_dtype(self, padding):
        rng = np.random.default_rng(42)
        x = tc.Tensor(rng.normal(size=(1, 3, 5, 5)), requires_grad=True)
        kernel = tc.Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32))
        out = tc.conv2d(x, kernel, padding=padding)
        assert out.data.dtype == np.float64
        tc.backward(tc.total(out))
        assert x.grad.dtype == np.float64

    def test_resize_matrices_are_cached_per_dtype(self):
        x32 = tc.Tensor(np.ones((1, 1, 5, 6), dtype=np.float32))
        first = tc.bilinear_resize(x32, 3, 4).data
        again = tc.bilinear_resize(x32, 3, 4).data
        wide = tc.bilinear_resize(tc.Tensor(x32.data.astype(np.float64)), 3, 4).data
        assert first.dtype == again.dtype == np.float32 and wide.dtype == np.float64
        for dtype in (np.float32, np.float64):
            cached = tc._RESIZE_CACHE[(5, 3, "bilinear", np.dtype(dtype))]
            assert cached.dtype == dtype
            assert tc._resize_matrix(5, 3, "bilinear", dtype) is cached


# ---------------------------------------------------------------------------
# optimizer


class TestSGD:
    def test_plain_step(self):
        p = tc.Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        opt = tc.SGD({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.95, 2.05], atol=1e-15)

    def test_zero_gradient_leaves_params(self):
        p = tc.Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.0])
        tc.SGD({"p": p}, lr=0.1, momentum=0.9).step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_none_gradient_skipped(self):
        p = tc.Tensor([1.0], requires_grad=True)
        tc.SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=0.1).step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_three_steps_match_hand_unrolled_recurrence(self):
        # quadratic loss 0.5*(p - 3)^2, gradient p - 3
        p = tc.Tensor([0.0], requires_grad=True)
        lr, mu, wd = 0.1, 0.9, 0.01
        opt = tc.SGD({"p": p}, lr=lr, momentum=mu, weight_decay=wd)

        ref_p, ref_v = 0.0, 0.0
        for _ in range(3):
            p.grad = np.array([p.data[0] - 3.0])
            opt.step()
            g = (ref_p - 3.0) + wd * ref_p
            ref_v = mu * ref_v + g
            ref_p = ref_p - lr * (g + mu * ref_v)
            assert p.data[0] == pytest.approx(ref_p, abs=1e-12)

    def test_lr_multiplier_prefix(self):
        a = tc.Tensor([1.0], requires_grad=True)
        b = tc.Tensor([1.0], requires_grad=True)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt = tc.SGD({"head.w": a, "backbone.w": b}, lr=0.1,
                     lr_multipliers={"head.": 10.0})
        opt.step()
        assert a.data[0] == pytest.approx(1.0 - 1.0, abs=1e-15)
        assert b.data[0] == pytest.approx(1.0 - 0.1, abs=1e-15)

    def test_the_longest_matching_prefix_sets_the_rate(self):
        names = ("head.conv", "head.bias", "backbone.w")
        params = {name: tc.Tensor([1.0], requires_grad=True) for name in names}
        for p in params.values():
            p.grad = np.array([1.0])
        # the longest prefix is listed in the middle, so neither the first nor
        # the last match in dict order gives "head.conv"'s rate
        tc.SGD(params, lr=0.1, lr_multipliers={"head.": 10.0, "head.conv": 2.0,
                                               "head": 5.0}).step()
        assert [params[name].data[0] for name in names] == \
            pytest.approx([1.0 - 0.2, 1.0 - 1.0, 1.0 - 0.1], abs=1e-15)

    @staticmethod
    def allocating_step(data, velocity, grads, rate, momentum, weight_decay,
                        multipliers, exempt):
        """The update as computed with a fresh array for every term."""
        for name, g in grads.items():
            if g is None:
                continue
            if weight_decay and not name.startswith(exempt):
                g = g + weight_decay * data[name]
            v = velocity[name]
            v *= momentum
            v += g
            update = g + momentum * v if momentum else v
            data[name] = data[name] - rate * multipliers.get(name.split(".")[0] + ".", 1.0) \
                * update

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_is_bit_identical_to_the_allocating_formula(self, momentum,
                                                                       dtype):
        rng = np.random.default_rng(12)
        shapes = {"backbone.w": (4, 3, 3, 3), "head.w": (6, 4, 1, 1),
                  "gvi.w": (5, 4, 1, 1), "gpr.w": (5, 6, 1, 1)}
        params = {name: tc.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                  for name, shape in shapes.items()}
        multipliers = {"head.": 10.0, "gvi.": 0.5, "gpr.": 0.5}
        exempt = ("gvi.", "gpr.")
        opt = tc.SGD(params, lr=0.01, momentum=momentum, weight_decay=5e-4,
                     lr_multipliers=multipliers, weight_decay_exempt=exempt)
        data = {name: p.data.copy() for name, p in params.items()}
        velocity = {name: np.zeros_like(p.data) for name, p in params.items()}
        for step in range(4):
            for name, p in params.items():
                # gpr.w enters no graph on odd steps
                p.grad = None if name == "gpr.w" and step % 2 else \
                    rng.normal(size=p.data.shape).astype(dtype)
            grads = {name: p.grad for name, p in params.items()}
            given = {name: None if g is None else g.copy() for name, g in grads.items()}
            rate = tc.polynomial_lr(0.01, step, 4)
            opt.step(rate)
            self.allocating_step(data, velocity, grads, rate, momentum, 5e-4,
                                 multipliers, exempt)
            for name, p in params.items():
                assert same_bits(p.data, data[name]), name
                assert same_bits(opt.velocity[name], velocity[name]), name
                assert p.grad is grads[name]
                assert given[name] is None or same_bits(p.grad, given[name]), name

    def test_polynomial_decay(self):
        assert tc.polynomial_lr(1.0, 0, 100) == 1.0
        assert tc.polynomial_lr(1.0, 100, 100) == 0.0
        assert tc.polynomial_lr(1.0, 50, 100) == pytest.approx(0.5 ** 0.9)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_sequence_bit_identical():
    def run():
        rng = np.random.default_rng(77)
        x = tc.Tensor(rng.normal(size=(1, 2, 8, 8)))
        k = tc.Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        labels = rng.integers(0, 2, size=(1, 4, 4))
        loss = tc.softmax_cross_entropy(tc.conv2d(x, k, stride=2, padding=1), labels)
        tc.backward(loss)
        return loss.item(), k.grad.copy()

    loss_a, grad_a = run()
    loss_b, grad_b = run()
    assert loss_a == loss_b
    np.testing.assert_array_equal(grad_a, grad_b)


def test_finiteness_helper():
    assert tc.Tensor([1.0, 2.0]).is_finite()
    assert not tc.Tensor([1.0, float("nan")]).is_finite()


# ---------------------------------------------------------------------------
# the heap setting made when the module is imported

FAULTS_PER_CONV = """
import resource
import numpy as np
from daplab import tensor as tc

rng = np.random.default_rng(0)
x = tc.Tensor(rng.standard_normal((2, 3, 64, 64)))
k = tc.Tensor(rng.standard_normal((16, 3, 3, 3)))
for _ in range(5):
    tc.conv2d(x, k, padding=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    tc.conv2d(x, k, padding=1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeated_conv_reuses_freed_heap_without_page_faults():
    """A fresh interpreter, so no heap history of other tests hides a
    regression: with glibc's default thresholds each call maps its columns
    and output anew and takes about 700 minor page faults."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_CONV], env=env,
                          capture_output=True, text=True, check=True)
    assert float(done.stdout) < 10


def test_heap_setting_is_skipped_without_mallopt_or_when_it_refuses(monkeypatch):
    calls = []

    def refusing_mallopt(param, value):
        calls.append(param)
        return 0

    class NoMallopt:
        def __init__(self, name):
            pass

    class RefusingMallopt(NoMallopt):
        mallopt = staticmethod(refusing_mallopt)

    monkeypatch.setattr(tc.ctypes, "CDLL", NoMallopt)
    tc._keep_freed_heap()
    monkeypatch.setattr(tc.ctypes, "CDLL", RefusingMallopt)
    tc._keep_freed_heap()
    # a refused mmap threshold leaves the trim threshold, and glibc's
    # dynamic thresholds, as they were
    assert calls == [tc._M_MMAP_THRESHOLD]
