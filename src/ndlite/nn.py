"""Minimal numpy neural-net kernels with explicit backward passes.

Feature maps are channels-last, [N, H, W, C] (here H=16 bit positions,
W=group depth); dense inputs are [N, F]. Forward functions return (output,
cache); the matching *_grad function consumes the cache. Effective weights
are passed in by the caller, so quantization-aware training can substitute
fake-quantized tensors without the kernels knowing. Per-channel sums
(batchnorm, bias gradients) run on the [rows, C] view (channel_sums, or
one einsum pass for a sum of products). Training normalizes through
batchnorm; inference folds a batchnorm into the layer before it as the
per-channel affine map of bn_affine.

A 'same' conv is a GEMM of window rows [N*H*W, live_taps*C] with the kernel
matrix of tap_matrix, over the taps that can read data (at group depth 1,
3 of a 3x3 kernel's 9). conv_sums is the one conv forward, for training
and every inference route; _window_blocks is the one window builder, one
block of about GEMM_ROWS output positions at a time through one padded
buffer. conv2d keeps x, not the batch's window rows, and conv2d_grad builds
them again for dw. On 0/1 inputs times +-1 codes the sums are exact
integers under F32_EXACT_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ------------------------------------------------------------------ conv2d

# Output positions per conv GEMM. Blocking bounds the window buffers, and
# OpenBLAS keeps packing memory that grows with a GEMM's row count.
GEMM_ROWS = 4096

# OpenBLAS runs a GEMM of up to 2**18 multiply-adds on the calling thread and
# splits a larger one over its threads. A split GEMM waits for its slowest
# thread, which a busy host delays: a [256, 512] x [512, 64] product took
# 0.11 ms at the median and 2.7 ms on average split, 0.16/0.18 ms in
# one-thread row blocks (2-core host). Products up to SPLIT_MACS gain little
# from a second thread (the g=1 float route ran 8.8 ms split, 9.0 ms on one
# thread), so they run in one-thread blocks; larger ones, such as the g=8
# conv GEMMs (75M-151M), ran 1.2-1.7x faster split on an idle host.
ONE_THREAD_MACS = 1 << 18
SPLIT_MACS = 1 << 25


def matmul_rows(a, b, out=None):
    """a [M, K] @ b [K, N], one GEMM per block of rows, into out (a
    C-contiguous [M, N] array) or a new array. Up to SPLIT_MACS
    multiply-adds, blocks are small enough for OpenBLAS to keep each on the
    calling thread; beyond that, or where such blocks would be thinner than
    8 rows (they re-read b every few rows), blocks are GEMM_ROWS rows."""
    m, k = a.shape
    n = b.shape[1]
    rows = ONE_THREAD_MACS // max(1, k * n)
    if rows < 8 or m * k * n > SPLIT_MACS:
        rows = GEMM_ROWS
    blocks, full = m // rows, m - m % rows
    if out is None:
        out = np.empty((m, n), np.result_type(a, b))
    np.matmul(a[:full].reshape(blocks, rows, k), b,
              out=out[:full].reshape(blocks, rows, n))
    np.matmul(a[full:], b, out=out[full:])
    return out


def _same_pad(kh, kw):
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("same padding needs odd kernel sizes")
    return kh // 2, kw // 2


def _live_taps(ph, pw, hh, ww):
    """(reach, window) of a 'same' kernel padded by (ph, pw) over an hh x ww
    map. A tap further than hh-1 rows (ww-1 columns) from the centre only
    ever reads padding, so the live taps are the centred block of
    half-extents reach = (rh, rw); window indexes it in a kernel's last two
    axes."""
    rh, rw = min(ph, hh - 1), min(pw, ww - 1)
    return (rh, rw), np.s_[..., ph - rh:ph + rh + 1, pw - rw:pw + rw + 1]


def _windows(xp, reach):
    """The live-tap windows of a zero-padded channels-last map xp
    [N, H+2rh, W+2rw, C], as a view [N, H, W, 2rh+1, 2rw+1, C]:
    win[n, i, j, u, v] = xp[n, i + u, j + v]. Copying it fills window rows."""
    rh, rw = reach
    n, hp, wp, c = xp.shape
    sn, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, hp - 2 * rh, wp - 2 * rw, 2 * rh + 1, 2 * rw + 1, c),
        (sn, sh, sw, sh, sw, sc), writeable=False)


def _im2col(x, kh, kw, ph, pw, *, out, pad):
    """Window rows [N*H*W, live_taps*C] of a channels-last map x [N, H, W, C],
    written into the first N*H*W rows of out (C-contiguous, live_taps*C
    columns) and returned as that view: row (n, i, j) holds, tap by tap, the
    C inputs that output position reads. Only the live taps are built (see
    _live_taps). x goes into pad [>= N, H+2rh, W+2rw, C], whose border the
    caller keeps zero."""
    n, h, w, c = x.shape
    reach, _ = _live_taps(ph, pw, h, w)
    rh, rw = reach
    xp = pad[:n]
    xp[:, rh:rh + h, rw:rw + w] = x
    win = _windows(xp, reach)
    rows = out[:n * h * w]
    rows.reshape(win.shape)[...] = win
    return rows


def _window_blocks(x, kh, kw, ph, pw, cols):
    """Yields (lo, hi, rows) for each block of samples x[lo:hi] whose window
    rows fit the buffer cols: rows is that block's _im2col, in cols. Every
    block goes through one zero-padded buffer."""
    n, h, w, c = x.shape
    (rh, rw), _ = _live_taps(ph, pw, h, w)
    step = max(1, len(cols) // (h * w))  # samples per block
    pad = np.zeros((min(n, step), h + 2 * rh, w + 2 * rw, c), x.dtype)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        yield lo, hi, _im2col(x[lo:hi], kh, kw, ph, pw, out=cols, pad=pad)


def _block_rows(n, h, w):
    """Rows of a window buffer for blocks of about GEMM_ROWS output
    positions: whole samples, at least one, at most n."""
    return min(n, max(1, GEMM_ROWS // (h * w))) * h * w


def tap_matrix(k, hh, ww):
    """(reach, kmat) of a 'same' conv kernel k [O, C, kh, kw] over an hh x ww
    map: the half-extents of its live taps (see _live_taps) and the GEMM
    matrix [live_taps * C, O] over them in k's dtype, rows in (tap, in_ch)
    order. Taps that only ever read the zero padding are left out."""
    out_ch, _, kh, kw = k.shape
    reach, live = _live_taps(*_same_pad(kh, kw), hh, ww)
    kmat = k[live].transpose(2, 3, 1, 0).reshape(-1, out_ch)
    return reach, np.ascontiguousarray(kmat)


def conv2d(x, w, b=None):
    """Stride-1 'same' convolution of channels-last x [N,H,W,C] with
    w [O,C,kh,kw] and b [O], to y [N,H,W,O]: conv_sums with w's
    tap_matrix, plus b. The cache keeps x and an empty one-block window
    buffer, not the batch's window rows: conv2d_grad builds them block by
    block, so x must not change in between."""
    n, h, wd, c = x.shape
    if w.shape[1] != c:
        raise ValueError(f"input has {c} channels, kernel expects {w.shape[1]}")
    reach, kmat = tap_matrix(w, h, wd)
    y = conv_sums(x, reach, kmat)
    if b is not None:
        y += b
    cols = np.empty((_block_rows(n, h, wd), len(kmat)), x.dtype)
    return y, (cols, w, x, b is not None)


def conv2d_grad(dy, cache):
    """Returns (dx, dw, db), dx and dy channels-last; db is None when the
    layer had no bias. dw sums cols^T . dY over the forward's blocks, each
    block's window rows built again into the cached buffer (taps that only
    read padding get an exact zero); dx is the 'same' conv of dY with the
    kernel flipped and its channel axes swapped (conv_sums)."""
    cols, w, x, has_b = cache
    n, h, wd, c = x.shape
    out_ch, _, kh, kw = w.shape
    ph, pw = _same_pad(kh, kw)
    _, live = _live_taps(ph, pw, h, wd)
    rows = dy.reshape(-1, out_ch)
    dwm = np.zeros((cols.shape[1], out_ch), np.result_type(cols, dy))
    for lo, hi, block in _window_blocks(x, kh, kw, ph, pw, cols):
        dwm += block.T @ rows[lo * h * wd:hi * h * wd]
    dw = np.zeros(w.shape, dwm.dtype)
    taps = dw[live].shape[2:]
    dw[live] = dwm.reshape(*taps, c, out_ch).transpose(3, 2, 0, 1)
    dx = conv_sums(dy, *tap_matrix(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                                   h, wd))
    return dx, dw, channel_sums(rows) if has_b else None


# ---------------------------------------------------- exact integer sums

# Every integer of magnitude up to 2**24 is a float32, so a float32 GEMM of
# 0/1 inputs with +-1 codes sums exactly while a channel's fan-in plus its
# skip bit stays below this: every partial sum, in any order, is bounded by it.
F32_EXACT_LIMIT = 1 << 24


def check_f32_exact(name, fan_in):
    """Raise ValueError unless a sum of fan_in 0/1 x +-1 terms (skip bit
    included) is exact in float32."""
    if fan_in >= F32_EXACT_LIMIT:
        raise ValueError(f"{name}: fan-in {fan_in} is not exact in float32 "
                         f"(limit {F32_EXACT_LIMIT})")


def channels_last_rows(w, c, hh, ww):
    """Rows of a dense weight [c*hh*ww, O], indexed in [C, H, W] flattening
    order, reordered for inputs flattened channels-last from [H, W, C]."""
    return w[np.arange(c * hh * ww).reshape(c, hh, ww).transpose(1, 2, 0).ravel()]


def channels_first_rows(w, c, hh, ww):
    """Inverse of channels_last_rows: rows in [H, W, C] order back to
    [C, H, W] order."""
    return w.reshape(hh, ww, c, -1).transpose(2, 0, 1, 3).reshape(c * hh * ww, -1)


def conv_sums(x, reach, kmat, out=None):
    """Conv sums [N, H, W, O] of a channels-last map x [N, H, W, C] (0/1
    bits, conv2d's input or conv2d_grad's dY), with (reach, kmat) from
    tap_matrix, in np.result_type(x, kmat), into out (C-contiguous) or a new
    array: one GEMM per block of _window_blocks, reads past the edge being
    the zero padding. A 1x1 conv is one matmul_rows over the [rows, C]
    view."""
    n, hh, ww, c = x.shape
    rh, rw = reach
    s = out if out is not None else np.empty(
        (n, hh, ww, kmat.shape[1]), np.result_type(x, kmat))
    if rh == rw == 0:
        matmul_rows(x.reshape(-1, c), kmat, out=s.reshape(-1, s.shape[-1]))
        return s
    cols = np.empty((_block_rows(n, hh, ww), len(kmat)), s.dtype)
    for lo, hi, rows in _window_blocks(x, 2 * rh + 1, 2 * rw + 1, rh, rw,
                                       cols):
        np.matmul(rows, kmat, out=s[lo:hi].reshape(len(rows), -1))
    return s


# --------------------------------------------------------------- batchnorm

@dataclass
class BnState:
    """Per-channel affine normalization state (channel axis last)."""
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray  # biased (1/M) variance
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, channels, momentum=0.1, eps=1e-5, dtype=np.float64):
        return cls(gamma=np.ones(channels, dtype), beta=np.zeros(channels, dtype),
                   running_mean=np.zeros(channels, dtype),
                   running_var=np.ones(channels, dtype),
                   momentum=momentum, eps=eps)


def bn_sigma(var, eps):
    """Pinned float64 value of sqrt(var + eps).

    Exact evaluation and threshold folding must agree on the same rational
    stand-in for the irrational standard deviation; this is it.
    """
    return math.sqrt(float(var) + float(eps))


def channel_sums(rows):
    """Per-channel sums [C] of rows [M, C]. numpy sums axis 0 one row at a
    time, so k = 512 // C row groups are summed side by side as one
    [M // k, k*C] view, then folded (float32 [8192, 32], 2-core host: 0.25
    ms as is, 0.05 ms this way); the M % k rows left over are added after."""
    m, c = rows.shape
    k = max(1, 512 // c)
    full = m - m % k
    wide = rows[:full].reshape(-1, k * c).sum(axis=0)
    return wide.reshape(k, c).sum(axis=0) + rows[full:].sum(axis=0)


def bn_affine(bn: BnState):
    """(scale, shift) of inference batchnorm, y = x * scale + shift per
    channel: scale = gamma / sqrt(var + eps), shift = beta - mean * scale,
    in the parameters' own dtype (an identity batchnorm gives exactly 1 and
    0). The float route folds them into the layer before (Model)."""
    scale = bn.gamma * (1.0 / np.sqrt(bn.running_var + bn.eps))
    return scale, bn.beta - bn.running_mean * scale


def batchnorm(x, bn: BnState):
    """Training-mode batchnorm: normalize per channel over every leading
    axis of a channels-last x [..., C] by the batch's statistics, and
    update the running stats in place. The variance is taken over the
    centred rows, which the cache keeps with inv_std and the folded scale
    gamma * inv_std. Inference folds bn_affine into the layer before
    instead."""
    if x.shape[0] < 2:
        raise ValueError("batchnorm training requires batch size >= 2")
    rows = x.reshape(-1, x.shape[-1])
    mean = channel_sums(rows) / len(rows)
    xc = rows - mean
    var = np.einsum("ij,ij->j", xc, xc) / len(rows)
    bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
    bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    scale = bn.gamma * inv_std
    y = xc * scale
    y += bn.beta
    return y.reshape(x.shape), (xc, inv_std, scale)


def batchnorm_grad(dy, cache):
    """Returns (dx, dgamma, dbeta), with xhat = xc * inv_std and
    dx = scale * (dy - dbeta/m - xhat * dgamma/m), scale = gamma * inv_std."""
    xc, inv_std, scale = cache
    rows = dy.reshape(xc.shape)
    m = len(rows)
    dgamma = np.einsum("ij,ij->j", rows, xc) * inv_std
    dbeta = channel_sums(rows)
    dx = np.multiply(xc, inv_std * dgamma / -m)
    dx += rows
    dx -= dbeta / m
    dx *= scale
    return dx.reshape(dy.shape), dgamma, dbeta


# ------------------------------------------------------------------- dense

def dense(x, w, b):
    """x [N, F] @ w [F, O] + b [O], through matmul_rows."""
    return matmul_rows(x, w) + b, (x, w)


def dense_grad(dy, cache):
    x, w = cache
    return dy @ w.T, x.T @ dy, channel_sums(dy)


# -------------------------------------------------------------- activations

def relu(x):
    return np.maximum(x, 0.0), x > 0


def relu_grad(dy, cache):
    return dy * cache


def sigmoid(x):
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y, y


def sigmoid_grad(dy, cache):
    return dy * cache * (1.0 - cache)


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits, labels):
    """Mean cross-entropy of integer labels; returns (loss, dlogits)."""
    n = logits.shape[0]
    p = softmax(logits)
    eps = 1e-12
    loss = -np.mean(np.log(p[np.arange(n), labels] + eps))
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


# -------------------------------------------------------------------- adam

@dataclass
class Adam:
    """Adam over a dict of named parameter arrays, updated in place."""
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params, grads, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            if g is None:
                continue
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
