"""Kernel tests: naive-loop conv oracle, finite differences, reference Adam."""

import numpy as np
import pytest

from ndlite import nn


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def fd_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        hi = f()
        x[i] = old - eps
        lo = f()
        x[i] = old
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def cl(a):
    """Channels-last view [N, H, W, C] of a feature map drawn as [N, C, H, W]."""
    return a.transpose(0, 2, 3, 1)


def naive_conv2d(x, w, b=None):
    """Direct six-loop 'same' stride-1 convolution; the oracle."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    y = np.zeros((n, o, h, wd))
    for ni in range(n):
        for oi in range(o):
            for hi in range(h):
                for wi in range(wd):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                hh, ww = hi + u - ph, wi + v - pw
                                if 0 <= hh < h and 0 <= ww < wd:
                                    acc += x[ni, ci, hh, ww] * w[oi, ci, u, v]
                    y[ni, oi, hi, wi] = acc + (b[oi] if b is not None else 0.0)
    return y


# ------------------------------------------------------------------ conv2d

def test_conv_matches_naive_3x3():
    r = np.random.default_rng(0)
    x = r.normal(size=(2, 3, 5, 4))
    w = r.normal(size=(4, 3, 3, 3))
    b = r.normal(size=4)
    y, _ = nn.conv2d(cl(x), w, b)
    assert rel_err(y, cl(naive_conv2d(x, w, b))) < 1e-12


def test_conv_matches_naive_1x1():
    r = np.random.default_rng(1)
    x = r.normal(size=(3, 4, 16, 1))
    w = r.normal(size=(5, 4, 1, 1))
    y, _ = nn.conv2d(cl(x), w)
    assert rel_err(y, cl(naive_conv2d(x, w))) < 1e-12


def test_conv_matches_naive_depth_one_3x3():
    # W=1 exercises zero padding on the narrow axis.
    r = np.random.default_rng(2)
    x = r.normal(size=(2, 6, 16, 1))
    w = r.normal(size=(6, 6, 3, 3))
    y, _ = nn.conv2d(cl(x), w)
    assert rel_err(y, cl(naive_conv2d(x, w))) < 1e-12


def test_conv_backward_finite_difference():
    # Non-square kernels fail a dx that flips or transposes the wrong axes.
    r = np.random.default_rng(3)
    x = r.normal(size=(2, 3, 6, 5))
    b = r.normal(size=4)
    proj = r.normal(size=(2, 4, 6, 5))
    for kernel in [(3, 3), (3, 1), (1, 3), (5, 3)]:
        w = r.normal(size=(4, 3) + kernel)

        def loss():
            y, _ = nn.conv2d(cl(x), w, b)
            return float((y * cl(proj)).sum())

        y, cache = nn.conv2d(cl(x), w, b)
        dx, dw, db = nn.conv2d_grad(cl(proj), cache)
        assert rel_err(dx, cl(fd_grad(loss, x))) < 1e-6, kernel
        assert rel_err(dw, fd_grad(loss, w)) < 1e-6, kernel
        assert rel_err(db, fd_grad(loss, b)) < 1e-6, kernel


def test_conv_backward_no_bias():
    r = np.random.default_rng(4)
    x = r.normal(size=(2, 2, 4, 3))
    w = r.normal(size=(3, 2, 1, 1))
    y, cache = nn.conv2d(cl(x), w)
    proj = r.normal(size=(2, 3, 4, 3))
    dx, dw, db = nn.conv2d_grad(cl(proj), cache)
    assert db is None

    def loss():
        y2, _ = nn.conv2d(cl(x), w)
        return float((y2 * cl(proj)).sum())

    assert rel_err(dw, fd_grad(loss, w)) < 1e-6


def test_conv_backward_depth_one_prunes_padding_taps():
    # At W=1 the kernel's outer columns only ever read padding: they are
    # not built, and their weight gradient is exactly zero.
    r = np.random.default_rng(6)
    x = r.normal(size=(2, 3, 6, 1))
    w = r.normal(size=(4, 3, 3, 3))
    proj = r.normal(size=(2, 4, 6, 1))

    def loss():
        y, _ = nn.conv2d(cl(x), w)
        return float((y * cl(proj)).sum())

    _, cache = nn.conv2d(cl(x), w)
    assert cache[0].shape == (2 * 6 * 1, 3 * 3)  # 3 live taps of 9
    dx, dw, _ = nn.conv2d_grad(cl(proj), cache)
    assert rel_err(dx, cl(fd_grad(loss, x))) < 1e-6
    assert rel_err(dw, fd_grad(loss, w)) < 1e-6
    assert np.all(dw[:, :, :, [0, 2]] == 0.0)
    assert np.all(dw[:, :, :, 1] != 0.0)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-4), (np.float64, 1e-6)])
def test_conv_backward_kernel_wider_than_map(dtype, tol):
    # A 5x5 kernel on a 3x2 map reaches (2, 1): columns 0 and 4 only ever
    # read padding. Finite differences are taken in float64.
    r = np.random.default_rng(13)
    x = r.normal(size=(2, 3, 3, 2))
    w = r.normal(size=(4, 3, 5, 5))
    b = r.normal(size=4)
    proj = r.normal(size=(2, 4, 3, 2))

    def loss():
        y, _ = nn.conv2d(cl(x), w, b)
        return float((y * cl(proj)).sum())

    y, cache = nn.conv2d(cl(x).astype(dtype), w.astype(dtype), b.astype(dtype))
    dx, dw, db = nn.conv2d_grad(cl(proj).astype(dtype), cache)
    assert y.dtype == dx.dtype == dw.dtype == db.dtype == dtype
    assert dx.shape == (2, 3, 2, 3) and dw.shape == w.shape
    assert rel_err(dx, cl(fd_grad(loss, x))) < tol
    assert rel_err(dw, fd_grad(loss, w)) < tol
    assert rel_err(db, fd_grad(loss, b)) < tol
    assert np.all(dw[:, :, :, [0, 4]] == 0.0)


@pytest.mark.parametrize("n, h, width, kernel", [
    (7, 5, 4, (3, 3)), (5, 16, 1, (1, 1)), (5, 16, 1, (3, 3)),
    (5, 16, 3, (3, 3))], ids=["3x3-h5-w4", "1x1-w1", "3x3-w1", "3x3-w3"])
def test_conv_gemm_blocks_agree(monkeypatch, n, h, width, kernel):
    # Blocks of 2 samples, the last a remainder: the forward and dw build
    # each block's windows into the one buffer the cache keeps.
    r = np.random.default_rng(7)
    x = r.normal(size=(n, 3, h, width))
    w = r.normal(size=(4, 3) + kernel)
    b = r.normal(size=4)
    proj = r.normal(size=(n, 4, h, width))
    y, cache = nn.conv2d(cl(x), w, b)
    whole = (y,) + nn.conv2d_grad(cl(proj), cache)
    monkeypatch.setattr(nn, "GEMM_ROWS", 2 * h * width)
    y, cache = nn.conv2d(cl(x), w, b)
    taps = ((2 * min(kernel[0] // 2, h - 1) + 1)
            * (2 * min(kernel[1] // 2, width - 1) + 1))
    assert cache[0].shape == (2 * h * width, taps * 3)
    blocked = (y,) + nn.conv2d_grad(cl(proj), cache)
    for a, c in zip(whole, blocked):
        assert a.dtype == c.dtype == np.float64 and a.shape == c.shape
        assert rel_err(c, a) < 1e-12
    assert rel_err(blocked[0], cl(naive_conv2d(x, w, b))) < 1e-12


def test_conv_training_memory_does_not_grow_with_blocks(monkeypatch):
    # The cache keeps one block's window buffer, not the batch's window
    # rows, so past y and dx (x and dy are made before tracing) conv2d and
    # conv2d_grad over 16 blocks at g=8 peak no higher than over one.
    tracemalloc = pytest.importorskip("tracemalloc")
    monkeypatch.setattr(nn, "GEMM_ROWS", 2 * 16 * 8)  # 2-sample blocks
    r = np.random.default_rng(17)
    w = r.normal(size=(16, 16, 3, 3)).astype(np.float32)
    x, dy = r.normal(size=(2, 32, 16, 8, 16)).astype(np.float32)
    nn.conv2d_grad(dy[:2], nn.conv2d(x[:2], w)[1])
    extra = []
    for n in (2, 32):
        tracemalloc.start()
        try:
            y, cache = nn.conv2d(x[:n], w)
            dx, _, _ = nn.conv2d_grad(dy[:n], cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - y.nbytes - dx.nbytes)
    assert extra[1] <= 1.25 * extra[0], extra


@pytest.mark.parametrize("m", [0, 5, 24, 29])
def test_matmul_rows_blocks(monkeypatch, m):
    # one-thread blocks of 8 rows for k*n = 12 (full blocks, a remainder, no
    # full block), GEMM_ROWS blocks of 10 for k*n = 13 (blocks would be
    # thinner than 8 rows) and for products above SPLIT_MACS
    monkeypatch.setattr(nn, "ONE_THREAD_MACS", 8 * 12)
    monkeypatch.setattr(nn, "GEMM_ROWS", 10)
    r = np.random.default_rng(12)
    for k, n, split in ((3, 4, 1 << 25), (13, 1, 1 << 25), (3, 4, 100)):
        monkeypatch.setattr(nn, "SPLIT_MACS", split)
        a, b = r.normal(size=(m, k)), r.normal(size=(k, n))
        out = nn.matmul_rows(a, b)
        assert out.shape == (m, n) and out.dtype == np.float64
        assert np.abs(out - a @ b).max(initial=0.0) < 1e-12
        y, _ = nn.dense(a, b, np.ones(n))
        assert np.abs(y - (a @ b + 1)).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 6, 1), (2, 3, 4, 3)])
def test_conv_keeps_dtype(dtype, shape):
    r = np.random.default_rng(8)
    x = r.normal(size=shape).astype(dtype)
    for kernel in [(3, 3), (1, 1)]:  # a 1x1 dx runs without windows
        w = r.normal(size=(4, 3) + kernel).astype(dtype)
        y, cache = nn.conv2d(cl(x), w)
        dx, dw, _ = nn.conv2d_grad(r.normal(size=y.shape).astype(dtype), cache)
        assert y.dtype == dx.dtype == dw.dtype == dtype
        assert dx.shape == cl(x).shape and dw.shape == w.shape


def test_conv_validates_shapes():
    x = cl(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ValueError):
        nn.conv2d(x, np.zeros((2, 5, 3, 3)))
    with pytest.raises(ValueError):
        nn.conv2d(x, np.zeros((2, 3, 2, 2)))


# --------------------------------------------------------------- batchnorm

def test_batchnorm_training_normalizes():
    r = np.random.default_rng(5)
    x = r.normal(loc=3.0, scale=2.0, size=(8, 4, 6, 5))
    bn = nn.BnState.create(4)
    y, _ = nn.batchnorm(cl(x), bn)
    assert np.abs(y.mean(axis=(0, 1, 2))).max() < 1e-10
    assert rel_err(y.var(axis=(0, 1, 2)), np.ones(4)) < 1e-4  # off by eps only


def test_batchnorm_running_stats_update():
    r = np.random.default_rng(6)
    x = r.normal(size=(16, 3, 4, 4))
    bn = nn.BnState.create(3, momentum=0.25)
    mean0, var0 = bn.running_mean.copy(), bn.running_var.copy()
    nn.batchnorm(cl(x), bn)
    bm = x.mean(axis=(0, 2, 3))
    bv = x.var(axis=(0, 2, 3))
    assert rel_err(bn.running_mean, 0.75 * mean0 + 0.25 * bm) < 1e-12
    assert rel_err(bn.running_var, 0.75 * var0 + 0.25 * bv) < 1e-12


def test_batchnorm_inference_uses_running_stats():
    r = np.random.default_rng(7)
    bn = nn.BnState.create(2)
    bn.gamma = np.array([2.0, -1.0])
    bn.beta = np.array([0.5, 1.5])
    bn.running_mean = np.array([1.0, -2.0])
    bn.running_var = np.array([4.0, 0.25])
    x = r.normal(size=(1, 2, 3, 3))
    scale, shift = nn.bn_affine(bn)
    y = cl(x) * scale + shift
    expect = (bn.gamma[None, :, None, None]
              * (x - bn.running_mean[None, :, None, None])
              / np.sqrt(bn.running_var + bn.eps)[None, :, None, None]
              + bn.beta[None, :, None, None])
    assert rel_err(y, cl(expect)) < 1e-12


def test_batchnorm_rejects_tiny_training_batch():
    bn = nn.BnState.create(2)
    x = cl(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError):
        nn.batchnorm(x, bn)


def test_batchnorm_backward_finite_difference_4d():
    r = np.random.default_rng(8)
    x = r.normal(size=(4, 3, 5, 2))
    bn = nn.BnState.create(3)
    bn.gamma = r.normal(size=3)
    bn.beta = r.normal(size=3)
    proj = r.normal(size=x.shape)

    def loss():
        y, _ = nn.batchnorm(cl(x), bn)
        return float((y * cl(proj)).sum())

    y, cache = nn.batchnorm(cl(x), bn)
    dx, dgamma, dbeta = nn.batchnorm_grad(cl(proj), cache)
    assert rel_err(dx, cl(fd_grad(loss, x))) < 1e-5
    assert rel_err(dgamma, fd_grad(loss, bn.gamma)) < 1e-6
    assert rel_err(dbeta, fd_grad(loss, bn.beta)) < 1e-6


def test_batchnorm_backward_finite_difference_2d():
    r = np.random.default_rng(9)
    x = r.normal(size=(6, 4))
    bn = nn.BnState.create(4)
    bn.gamma = r.normal(size=4)
    proj = r.normal(size=x.shape)

    def loss():
        y, _ = nn.batchnorm(x, bn)
        return float((y * proj).sum())

    y, cache = nn.batchnorm(x, bn)
    dx, dgamma, dbeta = nn.batchnorm_grad(proj, cache)
    assert rel_err(dx, fd_grad(loss, x)) < 1e-5
    assert rel_err(dgamma, fd_grad(loss, bn.gamma)) < 1e-6


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("shape", [(3, 7, 1, 48), (21, 48), (3, 7, 1, 32),
                                   (4, 16, 2, 32)])
def test_batchnorm_matches_float64_reference(dtype, tol, shape):
    # 21 rows do not split evenly into channel_sums' row groups (10 groups
    # at 48 channels, 16 at 32), and 48 channels do not divide 512.
    r = np.random.default_rng(14)
    x = r.normal(loc=1.5, scale=2.0, size=shape)
    dy = r.normal(size=shape)
    c = shape[-1]
    gamma, beta = r.normal(size=c), r.normal(size=c)
    rows, drows = x.reshape(-1, c), dy.reshape(-1, c)
    m = len(rows)
    mean, var = rows.mean(axis=0), rows.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (rows - mean) * inv_std
    dgamma, dbeta = (drows * xhat).sum(axis=0), drows.sum(axis=0)
    dx = gamma * inv_std / m * (m * drows - dbeta - xhat * dgamma)

    bn = nn.BnState.create(c, momentum=0.25, dtype=dtype)
    bn.gamma, bn.beta = gamma.astype(dtype), beta.astype(dtype)
    y, cache = nn.batchnorm(x.astype(dtype), bn)
    got = (y,) + nn.batchnorm_grad(dy.astype(dtype), cache)
    want = ((gamma * xhat + beta).reshape(shape), dx.reshape(shape), dgamma,
            dbeta)
    for a, b in zip(got, want):
        assert a.dtype == dtype and a.shape == b.shape
        assert rel_err(a, b) < tol
    assert rel_err(bn.running_mean, 0.25 * mean) < tol
    assert rel_err(bn.running_var, 0.75 + 0.25 * var) < tol


# ------------------------------------------------------------------- dense

def test_dense_forward_and_backward():
    r = np.random.default_rng(11)
    x = r.normal(size=(5, 7))
    w = r.normal(size=(7, 3))
    b = r.normal(size=3)
    y, cache = nn.dense(x, w, b)
    assert rel_err(y, x @ w + b) < 1e-12
    proj = r.normal(size=y.shape)

    def loss():
        y2, _ = nn.dense(x, w, b)
        return float((y2 * proj).sum())

    dx, dw, db = nn.dense_grad(proj, cache)
    assert rel_err(dx, fd_grad(loss, x)) < 1e-6
    assert rel_err(dw, fd_grad(loss, w)) < 1e-6
    assert rel_err(db, fd_grad(loss, b)) < 1e-6


# -------------------------------------------------------------- activations

def test_relu():
    x = np.array([-2.0, -0.0, 0.0, 3.0])
    y, cache = nn.relu(x)
    assert np.array_equal(y, [0.0, 0.0, 0.0, 3.0])
    dy = np.ones_like(x)
    assert np.array_equal(nn.relu_grad(dy, cache), [0.0, 0.0, 0.0, 1.0])


def test_sigmoid_values_and_grad():
    r = np.random.default_rng(12)
    x = r.normal(size=(4, 5))
    y, cache = nn.sigmoid(x)
    assert rel_err(y, 1.0 / (1.0 + np.exp(-x))) < 1e-12
    proj = r.normal(size=x.shape)

    def loss():
        y2, _ = nn.sigmoid(x)
        return float((y2 * proj).sum())

    assert rel_err(nn.sigmoid_grad(proj, cache), fd_grad(loss, x)) < 1e-6


def test_sigmoid_extreme_inputs_stay_finite():
    y, _ = nn.sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 or y[0] < 1e-300
    assert y[1] == 1.0


def test_softmax_rows_normalize_and_stable():
    logits = np.array([[1e4, 1e4 - 1.0], [-1e4, 0.0]])
    p = nn.softmax(logits)
    assert np.all(np.isfinite(p))
    assert rel_err(p.sum(axis=1), np.ones(2)) < 1e-12
    assert p[0, 0] > p[0, 1] and p[1, 1] > p[1, 0]


def test_softmax_xent_value_and_grad():
    r = np.random.default_rng(13)
    logits = r.normal(size=(6, 2))
    labels = r.integers(0, 2, size=6)
    loss, dlogits = nn.softmax_xent(logits, labels)
    p = nn.softmax(logits)
    expect = -np.mean(np.log(p[np.arange(6), labels]))
    assert abs(loss - expect) < 1e-10

    def f():
        l2, _ = nn.softmax_xent(logits, labels)
        return float(l2)

    assert rel_err(dlogits, fd_grad(f, logits)) < 1e-6


# -------------------------------------------------------------------- adam

def reference_adam(params, grad_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam, scalar-looped."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(vv) for k, vv in params.items()}
    for t, grads in enumerate(grad_seq, start=1):
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1 ** t)
            vhat = v[k] / (1 - b2 ** t)
            p[k] = p[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_matches_reference():
    r = np.random.default_rng(14)
    params = {"a": r.normal(size=(3, 4)), "b": r.normal(size=5)}
    grad_seq = [{"a": r.normal(size=(3, 4)), "b": r.normal(size=5)}
                for _ in range(10)]
    expect = reference_adam(params, grad_seq, lr=0.01)
    opt = nn.Adam(lr=0.01)
    live = {k: v.copy() for k, v in params.items()}
    for grads in grad_seq:
        opt.step(live, grads)
    for k in params:
        assert rel_err(live[k], expect[k]) < 1e-10


def test_adam_skips_none_grads_and_takes_lr_override():
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    opt = nn.Adam(lr=0.1)
    opt.step(params, {"a": np.array([1.0]), "b": None}, lr=0.5)
    assert params["b"][0] == 1.0
    # First step moves by ~lr in the gradient direction.
    assert abs(params["a"][0] - 0.5) < 1e-6
