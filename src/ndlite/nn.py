"""Minimal numpy neural-net kernels with explicit backward passes.

Layout convention: feature maps are [N, C, H, W] (here H=16 bit positions,
W=group depth), dense inputs are [N, F]. Forward functions return
(output, cache); the matching *_grad function consumes the cache. Effective
weights are passed in by the caller, so quantization-aware training can
substitute fake-quantized tensors without the kernels knowing.

The exact-sum kernels (conv_sums and its helpers) serve both exact routes,
the model's rational reference and the lowered program: channels-last
[N, H, W, C] 0/1 inputs times +-1 codes in float32 GEMMs, exact integers
under F32_EXACT_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ------------------------------------------------------------------ conv2d

def _same_pad(kh, kw):
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("same padding needs odd kernel sizes")
    return kh // 2, kw // 2


def _im2col(x, kh, kw, ph, pw):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    # win[n, c, i, j, u, v] = xp[n, c, i + u, j + v]; stride 1 keeps H x W.
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, h * w)
    return np.ascontiguousarray(cols)


def conv2d(x, w, b=None):
    """Stride-1 'same' convolution. x [N,C,H,W], w [O,C,kh,kw], b [O]."""
    n, c, h, wd = x.shape
    out_ch, c_in, kh, kw = w.shape
    if c_in != c:
        raise ValueError(f"input has {c} channels, kernel expects {c_in}")
    ph, pw = _same_pad(kh, kw)
    cols = _im2col(x, kh, kw, ph, pw)
    wf = w.reshape(out_ch, -1)
    y = np.matmul(wf[None], cols).reshape(n, out_ch, h, wd)
    if b is not None:
        y = y + b[None, :, None, None]
    return y, (cols, w, x.shape, b is not None)


def conv2d_grad(dy, cache):
    """Returns (dx, dw, db); db is None when the layer had no bias."""
    cols, w, x_shape, has_b = cache
    n, c, h, wd = x_shape
    out_ch, _, kh, kw = w.shape
    ph, pw = _same_pad(kh, kw)
    dyf = dy.reshape(n, out_ch, h * wd)
    dw = np.tensordot(dyf, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3)) if has_b else None
    wf = w.reshape(out_ch, -1)
    dcols = np.matmul(wf.T[None], dyf)  # [n, c*kh*kw, h*wd]
    dcols = dcols.reshape(n, c, kh, kw, h, wd)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + h, j:j + wd] += dcols[:, :, i, j]
    dx = dxp[:, :, ph:ph + h, pw:pw + wd]
    return dx, dw, db


# ---------------------------------------------------- exact integer sums

# Every integer of magnitude up to 2**24 is a float32, so a float32 GEMM of
# 0/1 inputs with +-1 codes sums exactly while a channel's fan-in plus its
# skip bit stays below this: every partial sum, in any order, is bounded by it.
F32_EXACT_LIMIT = 1 << 24
GEMM_ROWS = 4096  # output positions per conv GEMM in conv_sums


def check_f32_exact(name, fan_in):
    """Raise ValueError unless a sum of fan_in 0/1 x +-1 terms (skip bit
    included) is exact in float32."""
    if fan_in >= F32_EXACT_LIMIT:
        raise ValueError(f"{name}: fan-in {fan_in} is not exact in float32 "
                         f"(limit {F32_EXACT_LIMIT})")


def tap_matrix(k, hh, ww):
    """(taps, kmat) of a 'same' conv kernel k [O, C, kh, kw] over an hh x ww
    map: the (row, col) offsets of the taps that can read data, and the
    float32 GEMM matrix [taps * C, O] over them, rows in (tap, in_ch) order.
    Taps that only ever read the zero padding are left out."""
    out_ch, _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    live = [(u, v) for u in range(kh) for v in range(kw)
            if abs(u - ph) < hh and abs(v - pw) < ww]
    us, vs = zip(*live)
    kmat = k[:, :, list(us), list(vs)].transpose(2, 1, 0).reshape(-1, out_ch)
    taps = tuple((u - ph, v - pw) for u, v in live)
    return taps, np.ascontiguousarray(kmat, dtype=np.float32)


def channels_last_rows(w, c, hh, ww):
    """Rows of a dense weight [c*hh*ww, O], indexed in [C, H, W] flattening
    order, reordered for inputs flattened channels-last from [H, W, C]."""
    return w[np.arange(c * hh * ww).reshape(c, hh, ww).transpose(1, 2, 0).ravel()]


def conv_sums(x, taps, kmat):
    """Conv sums [N, H, W, O] of channels-last bits x [N, H, W, C]: one GEMM
    per block of GEMM_ROWS output positions over their tap windows, reads
    past the edge being the zero padding. Blocking bounds the window buffer,
    and OpenBLAS keeps packing memory that grows with the GEMM's row count."""
    n, hh, ww, c = x.shape
    step = max(1, GEMM_ROWS // (hh * ww))
    cols = np.zeros((min(n, step), hh, ww, len(taps), c), dtype=np.float32)
    s = np.empty((n, hh, ww, kmat.shape[1]), dtype=np.float32)
    for lo in range(0, n, step):
        xb = x[lo:lo + step]
        m = len(xb)
        # Each block rewrites the same in-bounds regions; padding stays 0.
        for t, (du, dv) in enumerate(taps):
            i0, i1 = max(0, -du), min(hh, hh - du)
            j0, j1 = max(0, -dv), min(ww, ww - dv)
            cols[:m, i0:i1, j0:j1, t] = xb[:, i0 + du:i1 + du, j0 + dv:j1 + dv]
        np.matmul(cols[:m].reshape(m * hh * ww, -1), kmat,
                  out=s[lo:lo + m].reshape(m * hh * ww, -1))
    return s


# --------------------------------------------------------------- batchnorm

@dataclass
class BnState:
    """Per-channel affine normalization state (channel axis 1)."""
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


def _bn_axes(x):
    if x.ndim == 4:
        return (0, 2, 3), (1, x.shape[1], 1, 1)
    if x.ndim == 2:
        return (0,), (1, x.shape[1])
    raise ValueError(f"batchnorm expects 2-D or 4-D input, got {x.ndim}-D")


def batchnorm(x, bn: BnState, training):
    """Normalize per channel; training mode updates running stats in place."""
    axes, shape = _bn_axes(x)
    if training:
        if x.shape[0] < 2:
            raise ValueError("batchnorm training requires batch size >= 2")
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
        bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
    else:
        mean = bn.running_mean
        var = bn.running_var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    y = bn.gamma.reshape(shape) * xhat + bn.beta.reshape(shape)
    return y, (xhat, inv_std, bn.gamma, axes, shape, training)


def batchnorm_grad(dy, cache):
    """Returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma, axes, shape, training = cache
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    g = gamma.reshape(shape) * inv_std.reshape(shape)
    if not training:
        return dy * g, dgamma, dbeta
    m = 1
    for a in axes:
        m *= dy.shape[a]
    dx = g / m * (m * dy - dbeta.reshape(shape) - xhat * dgamma.reshape(shape))
    return dx, dgamma, dbeta


# ------------------------------------------------------------------- dense

def dense(x, w, b):
    """x [N, F] @ w [F, O] + b [O]."""
    return x @ w + b, (x, w)


def dense_grad(dy, cache):
    x, w = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


# -------------------------------------------------------------- activations

def relu(x):
    return np.maximum(x, 0.0), (x > 0)


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
