"""The residual distinguisher: assembly, staged training, evaluation.

Architecture: 1x1 conv (4 -> channels) + batchnorm + activation, then
residual blocks of two 3x3 'same' convs with batchnorm and a skip
connection, then a dense head (flatten -> 64 -> 64 -> 2) with softmax. A
sample is called real when the softmax probability of the real class is at
least the decision threshold (0.505 by default, boundary inclusive).
Training normalizes with batch statistics (nn.batchnorm); the float route's
inference (forward without training, scores) folds each batchnorm's
running statistics into the layer before it (nn.bn_affine), so a layer is
one GEMM, the skip add, one shift add and the activation in place.

Quantization stages: "fp" trains plain float weights; "weights" substitutes
fake-quantized ternary weights (straight-through gradients, learned step
sizes); "full" additionally binarizes every hidden activation, and the skip
connection enters the second conv's pre-normalization sum scaled by that
conv's step size, so the whole network computes integer accumulator sums of
input bits. In the "full" stage the model's reference semantics is exact
rational arithmetic over those integer sums (exact_bit_forward); evaluate()
routes through it, which is what lowered programs are verified against.
Each indicator's rational predicate is affine in the integer sum, so one
integer switch point per channel, found in Fraction arithmetic and cached
per model content (exact_layers), makes it one compare. Nothing is taken
from the lowering's folded thresholds.

The integer network is one loop, run_layers over ExactLayers: float32 GEMM
sums (nn.conv_sums, nn.matmul_rows), exact because every channel's fan-in
plus its skip bit is checked to stay below nn.F32_EXACT_LIMIT, the skip
bits, one compare per channel. conv0 and the first residual conv take the
table route (table_route): conv0's bits are a gather by the 4-bit symbol
of a position's inputs, and res0.c1's sums gathers of per-tap-group
partial sums keyed by the symbols it reads, tables built once per compiled
layer list from its own layers. The loop streams the samples through all
layers in blocks of about SCORE_ROWS positions, as Model.scores does, so
its memory does not grow with the batch. The lowering's run_program runs
the same loop on layers compiled from a program; the two routes share it,
the kernel routing (route_kernel), the sum ranges (sum_range) and the
table builder, never the codes or the thresholds.
"""

from __future__ import annotations

import copy
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import nn
from .dataset import Dataset
from .quant import (STAGES, binarize_activation, binarize_activation_grad,
                    extract_ternary, init_step_size, quantize_weights,
                    step_size_grad, ste_weight_grad, QuantSchedule)
from .checkpoint import load_weights, save_weights

_ACTIVATIONS = ("relu", "sigmoid")
# Feature-map positions (samples x 16 x group size) per block of
# Model.scores and run_layers, with at least 64 samples (block_samples). A
# block's feature maps grow with its positions; its convs (nn.conv_sums)
# reuse one window buffer of about nn.GEMM_ROWS positions.
SCORE_ROWS = 8192


def block_samples(group_size):
    """Samples per block of Model.scores and run_layers: about SCORE_ROWS
    feature-map positions, 16 x group_size a sample, and at least 64."""
    return max(64, SCORE_ROWS // (16 * group_size))


@dataclass
class ModelConfig:
    group_size: int = 8
    channels: int = 32
    residual_blocks: int = 1
    dense_sizes: tuple = (64, 64)
    decision_threshold: float = 0.505
    hidden_activation: str = "relu"

    def __post_init__(self):
        sizes = (self.group_size, self.channels, self.residual_blocks,
                 *self.dense_sizes)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   and v >= 1 for v in sizes):
            raise ValueError("group_size, channels, residual_blocks and "
                             "dense_sizes must be integers >= 1")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie in (0, 1)")
        if self.hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {_ACTIVATIONS}")
        if len(self.dense_sizes) != 2:
            raise ValueError("head uses exactly two hidden dense layers")
        self.dense_sizes = tuple(int(d) for d in self.dense_sizes)

    @property
    def flatten_width(self):
        return self.channels * 16 * self.group_size


# Checkpoint suffix -> BnState field of each batchnorm tensor; Adam learns
# the first two.
_BN_TENSORS = (("gamma", "gamma"), ("beta", "beta"), ("mean", "running_mean"),
               ("var", "running_var"))


@dataclass(frozen=True)
class LayerSpec:
    """One ternary layer: a conv or dense channel set with one batchnorm or
    bias, whose output is binarized (the last layer's is the decision)."""
    name: str
    kind: str  # "conv" | "dense"
    kernel: tuple | None  # (kh, kw) for conv
    in_width: int  # conv: input channels; dense: flattened input width
    out_width: int
    norm: str  # "bn" | "bias"
    norm_key: str  # checkpoint prefix of the norm tensors
    skip_from: str | None = None  # layer whose output joins the sums

    @property
    def weight_shape(self):
        if self.kind == "conv":
            return (self.out_width, self.in_width) + self.kernel
        return (self.in_width, self.out_width)


def layer_specs(cfg: ModelConfig):
    """The model's layers in forward order; every other layer list (the
    parameters, checkpoints, lowering and op counts) is built from it."""
    c = cfg.channels
    specs = [LayerSpec("conv0", "conv", (1, 1), 4, c, "bn", "bn0")]
    for i in range(cfg.residual_blocks):
        block_input = specs[-1].name
        specs.append(LayerSpec(f"res{i}.c1", "conv", (3, 3), c, c, "bn",
                               f"res{i}.bn1"))
        specs.append(LayerSpec(f"res{i}.c2", "conv", (3, 3), c, c, "bn",
                               f"res{i}.bn2", skip_from=block_input))
    widths = (cfg.flatten_width,) + cfg.dense_sizes + (2,)
    for name, n_in, n_out in zip(("dense1", "dense2", "out"), widths,
                                 widths[1:]):
        specs.append(LayerSpec(name, "dense", None, n_in, n_out, "bias", name))
    return specs


def _norm_tensors(spec, norm, learned=False):
    """{parameter or checkpoint key: array} of one layer's norm; learned
    leaves out the batchnorm running statistics."""
    if spec.norm == "bias":
        return {f"{spec.norm_key}.b": norm}
    return {f"{spec.norm_key}.{suffix}": getattr(norm, attr)
            for suffix, attr in _BN_TENSORS[:2 if learned else 4]}


class Model:
    """Parameters by layer name: weights[name], norms[name] (a BnState or
    a bias vector) and, in quantized stages, deltas[name]."""

    def __init__(self, cfg: ModelConfig, weights, norms):
        self.cfg = cfg
        self.stage = "fp"
        self.weights = weights
        self.norms = norms
        # name -> 0-d float64 array, learnable in quantized stages
        self.deltas = {}
        # exact_layers' content_cached tuple; not a parameter
        self._exact = None

    # ------------------------------------------------------------ plumbing

    def quant_layer_names(self):
        return [spec.name for spec in layer_specs(self.cfg)]

    def set_stage(self, stage):
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}, expected one of {STAGES}")
        if stage != "fp":
            for name in self.quant_layer_names():
                if name not in self.deltas:
                    self.deltas[name] = np.array(
                        init_step_size(self.weights[name]), dtype=np.float64)
        self.stage = stage

    def delta_of(self, name):
        return float(self.deltas[name])

    def _effective(self, name):
        """(effective weight, raw weight, delta|None) for the current stage."""
        w = self.weights[name]
        if self.stage == "fp":
            return w, w, None
        d = self.delta_of(name)
        return quantize_weights(w, d).astype(np.float32), w, d

    def param_dict(self):
        p = {}
        for spec in layer_specs(self.cfg):
            p[f"{spec.name}.w"] = self.weights[spec.name]
            p.update(_norm_tensors(spec, self.norms[spec.name], learned=True))
        if self.stage != "fp":
            for name in self.quant_layer_names():
                p[f"delta.{name}"] = self.deltas[name]
        return p

    def project_deltas(self):
        for d in self.deltas.values():
            np.maximum(d, 1e-8, out=d)

    def clone(self):
        """A deep copy that shares exact_layers' cache: the cache is keyed
        by content and replaced, never edited, so a clone edited later
        builds its own."""
        return copy.deepcopy(self, {id(self._exact): self._exact})

    # ------------------------------------------------------------- forward

    def _act(self, x, training):
        """Hidden activation and its backward cache. At inference the cache
        is None but for the sigmoid's (its output), and the binarization and
        the relu overwrite x."""
        if self.stage == "full":
            if not training:
                return np.greater(x, 0, out=x), None
            return binarize_activation(x)
        if self.cfg.hidden_activation == "sigmoid":
            return nn.sigmoid(x)
        if not training:
            return np.maximum(x, 0, out=x), None
        return nn.relu(x)

    def _act_grad(self, dy, cache):
        if self.stage == "full":
            return binarize_activation_grad(dy, cache)
        if self.cfg.hidden_activation == "sigmoid":
            return nn.sigmoid_grad(dy, cache)
        return nn.relu_grad(dy, cache)

    def _layer_kernels(self, training):
        """(kernel, raw weight, delta|None, skip scale, shift|None) per layer
        in forward order. The kernel is the effective weight as the forward
        applies it: as route_kernel gives it, an inference conv's as (reach,
        kmat), but a training conv's as it is (nn.conv2d). A skip joins the
        sums times the skip scale: the step size in the full stage, else 1.
        At inference each batchnorm is folded into the layer before it: its
        nn.bn_affine scale multiplies the kernel's columns and the skip
        scale, and its shift (a dense layer's, the bias) is added after."""
        shape = (16, self.cfg.group_size, 4)
        out = []
        for spec in layer_specs(self.cfg):
            k, w, d = self._effective(spec.name)
            reach, kmat, shape = route_kernel(k, shape)
            lam = d if self.stage == "full" and spec.skip_from else 1.0
            shift = None
            if not training:
                shift = self.norms[spec.name]
                if spec.norm == "bn":
                    scale, shift = nn.bn_affine(shift)
                    kmat, lam = kmat * scale, lam * scale
            if reach is None:
                k = kmat
            elif not training:
                k = reach, kmat
            out.append((k, w, d, lam, shift))
        return out

    def forward(self, x, training):
        """Float-route forward of x [N, 4, 16, g]. Returns (logits [N,2],
        cache)."""
        return self._forward(x, training, self._layer_kernels(training))

    def _forward(self, x, training, kernels):
        """forward, with kernels from _layer_kernels(training). Feature maps
        run channels-last, [N, 16, g, C]. Training convs keep their input
        and one block's window buffer for backward (nn.conv2d), and
        training normalizes with nn.batchnorm. Inference runs per layer the
        GEMM (nn.conv_sums, nn.matmul_rows) of the folded kernel, the scaled
        skip add, the shift add and the activation in place."""
        check_layout(x, self.cfg.group_size)
        specs = layer_specs(self.cfg)
        # Skip sources' outputs stay referenced until the pass returns, like
        # the caches: releasing each as soon as it was read let glibc trim
        # and re-fault the heap on every batch (g=1, 256-sample batches on a
        # 2-core VM: 13k page faults per 8 batches, scores 40% slower).
        skip_sources = {spec.skip_from for spec in specs}
        outputs = {}
        caches = []
        h = x.transpose(0, 2, 3, 1)
        for spec, (k, w, d, lam, shift) in zip(specs, kernels):
            norm = self.norms[spec.name]
            in_shape = h.shape
            c_lin = c_bn = c_act = None
            if spec.kind == "conv":
                if training:
                    y, c_lin = nn.conv2d(h, k)
                else:
                    y = nn.conv_sums(h, *k)
            elif training:
                y, c_lin = nn.dense(h.reshape(len(h), len(k)), k, norm)
            else:
                y = nn.matmul_rows(h.reshape(len(h), len(k)), k)
            if spec.skip_from is not None:
                # In the full stage the skip joins pre-normalization at the
                # same scale as the quantized weights, so the accumulated sum
                # stays an integer multiple of delta. The scale is a constant
                # in backward.
                y += lam * outputs[spec.skip_from]
            if not training:
                y += shift
            elif spec.norm == "bn":
                y, c_bn = nn.batchnorm(y, norm)
            if spec is not specs[-1]:
                h, c_act = self._act(y, training)
                if spec.name in skip_sources:
                    outputs[spec.name] = h
            caches.append((c_lin, c_bn, c_act, lam, in_shape, (w, d)))
        return y, caches

    # ------------------------------------------------------------ backward

    def backward(self, dlogits, cache):
        """Gradients by parameter name. A skip source's output gradient is
        its consumer's gradient plus lam times the skip layer's pre-norm
        gradient, added in that order."""
        specs = layer_specs(self.cfg)
        grads = {}
        skip_grads = {}  # skip source name -> lam * its consumer's dpre
        dh = None
        for spec, (c_lin, c_bn, c_act, lam, in_shape, (w, d)) in zip(
                reversed(specs), reversed(cache)):
            if c_act is None:
                dy = dlogits
            else:
                if spec.name in skip_grads:
                    dh = dh + skip_grads.pop(spec.name)
                dy = self._act_grad(dh, c_act)
            if c_bn is not None:
                dy, dgamma, dbeta = nn.batchnorm_grad(dy, c_bn)
                grads[f"{spec.norm_key}.gamma"] = dgamma
                grads[f"{spec.norm_key}.beta"] = dbeta
            if spec.kind == "conv":
                dh, dw, _ = nn.conv2d_grad(dy, c_lin)
            else:
                dh, dw, grads[f"{spec.norm_key}.b"] = nn.dense_grad(dy, c_lin)
                dh = dh.reshape(in_shape)
                if len(in_shape) == 4:  # its rows ran in channels-last order
                    _, hh, ww, c = in_shape
                    dw = nn.channels_first_rows(dw, c, hh, ww)
            # Map the effective-weight gradient back to (w, delta) gradients.
            grads[f"{spec.name}.w"] = ste_weight_grad(dw)
            if d is not None:
                grads[f"delta.{spec.name}"] = np.array(
                    step_size_grad(w, d, dw), dtype=np.float64)
            if spec.skip_from is not None:
                skip_grads[spec.skip_from] = lam * dy
        return grads

    # ----------------------------------------------------------- inference

    def scores(self, x):
        """Float-route softmax probability of the real class, [N]. The
        effective weights are built once per call, and the forward runs on
        blocks of about SCORE_ROWS positions, so its buffers do not grow
        with N; an empty x is one empty block."""
        x = np.asarray(x)
        kernels = self._layer_kernels(training=False)
        step = block_samples(self.cfg.group_size)
        return np.concatenate([
            nn.softmax(self._forward(x[i:i + step].astype(np.float32),
                                     False, kernels)[0])[:, 1]
            for i in range(0, max(len(x), 1), step)])


# ------------------------------------------------------------------- build

def build_model(cfg: ModelConfig, seed=0) -> Model:
    """He-initialized model; deterministic under seed."""
    r = np.random.default_rng(seed)
    weights, norms = {}, {}
    for spec in layer_specs(cfg):
        shape = spec.weight_shape
        fan_in = math.prod(shape[1:]) if spec.kind == "conv" else shape[0]
        weights[spec.name] = r.normal(0.0, math.sqrt(2.0 / fan_in),
                                      size=shape).astype(np.float32)
        norms[spec.name] = (nn.BnState.create(spec.out_width, dtype=np.float32)
                            if spec.norm == "bn"
                            else np.zeros(spec.out_width, np.float32))
    return Model(cfg, weights, norms)


# ----------------------------------------------------------- exact forward

def _frac(x):
    return Fraction(float(x))


@dataclass
class ExactPredicate:
    """One layer's exact indicator: channel c fires iff
    slope[c] * S + offset[c] > 0 (>= 0 when inclusive) in rational
    arithmetic over its integer sum S."""
    slope: list
    offset: list
    inclusive: bool = False

    def __call__(self, c, s):
        v = self.slope[c] * s + self.offset[c]
        return v >= 0 if self.inclusive else v > 0

    def switch_points(self, lo, hi):
        """(t, first), int64 and bool per channel: at every integer S in
        [lo[c], hi[c]], channel c fires iff (S > t[c]) ^ first[c].

        With r = -offset/slope the predicate holds for S > r (slope > 0)
        or S < r (slope < 0), and also at S == r when inclusive; a zero
        slope makes it constant. t is clamped into [lo - 1, hi], which
        changes no bit on that range."""
        t = np.empty(len(self.slope), np.int64)
        first = np.empty(len(self.slope), bool)
        bounds = zip(np.asarray(lo).tolist(), np.asarray(hi).tolist())
        for c, (lo_c, hi_c) in enumerate(bounds):
            a = self.slope[c]
            if a == 0:  # every S in the range exceeds lo - 1
                at, first[c] = lo_c - 1, not self(c, 0)
            else:
                r = -self.offset[c] / a
                first[c] = a < 0
                # a > 0: S > floor(r), inclusive S > ceil(r) - 1;
                # a < 0: not S > ceil(r) - 1, inclusive not S > floor(r)
                at = (math.floor(r) if (a > 0) != self.inclusive
                      else math.ceil(r) - 1)
            t[c] = min(max(at, lo_c - 1), hi_c)
        return t, first


def _bn_predicate(bn: nn.BnState, delta):
    """[gamma*(delta*S - mu)/sigma + beta > 0], multiplied through by
    sigma > 0."""
    gam = [_frac(g) for g in bn.gamma]
    return ExactPredicate([g * _frac(delta) for g in gam], [
        _frac(b) * _frac(nn.bn_sigma(v, bn.eps)) - g * _frac(m)
        for g, b, m, v in zip(gam, bn.beta, bn.running_mean, bn.running_var)])


def _bias_predicate(bias, delta):
    """[delta*S + b > 0]."""
    return ExactPredicate([_frac(delta)] * len(bias), [_frac(b) for b in bias])


def exact_predicate(model: Model, spec: LayerSpec):
    """The model's exact indicator of one layer, from its spec: the
    batchnorm or bias form, or for the last layer the decision rule
    [delta*D + b1 - b0 >= log(t/(1-t))] on the output sums' difference
    D = S1 - S0, the log-odds pinned to its float64 value."""
    norm, delta = model.norms[spec.name], model.delta_of(spec.name)
    if spec == layer_specs(model.cfg)[-1]:
        thr = model.cfg.decision_threshold
        level = _frac(math.log(thr / (1.0 - thr)))
        return ExactPredicate([_frac(delta)], [
            _frac(norm[1]) - _frac(norm[0]) - level], inclusive=True)
    if spec.norm == "bn":
        return _bn_predicate(norm, delta)
    return _bias_predicate(norm, delta)


# ----------------------------------------------------- the integer network

def content_key(arrays):
    """A key that changes with the dtype, shape or bytes of any array: two
    keys are equal iff their arrays are, and same_content checks arrays
    against a key."""
    return [(a.dtype.str, a.shape, bytearray(np.ascontiguousarray(a)))
            for a in map(np.asarray, arrays)]


def same_content(arrays, key):
    """Whether the arrays still have the dtypes, shapes and bytes of key,
    compared where they lie: a bytearray compares with any contiguous
    buffer by memcmp, so no array is copied."""
    arrays = [np.asarray(a) for a in arrays]
    return len(arrays) == len(key) and all(
        a.dtype.str == dtype and a.shape == shape
        and data == np.ascontiguousarray(a)
        for a, (dtype, shape, data) in zip(arrays, key))


def content_cached(owner, attr, fields, arrays, build):
    """build()'s value, kept in owner.attr as (fields, content_key(arrays),
    value) and built again whenever fields or the content of arrays differ
    from the kept ones (arrays may be edited in place). The tuple is
    replaced, never edited, so copies of owner may share it."""
    kept = getattr(owner, attr)
    if kept is None or kept[0] != fields or not same_content(arrays, kept[1]):
        # built first: the key's copy of the arrays is not held meanwhile
        value = build()
        kept = (fields, content_key(arrays), value)
        setattr(owner, attr, kept)
    return kept[2]


def check_layout(x, group_size):
    """ValueError unless x is a batch [N, 4, 16, group_size]."""
    if x.ndim != 4 or x.shape[1:] != (4, 16, group_size):
        raise ValueError(f"input shape {x.shape} does not match layout "
                         f"(N, 4, 16, {group_size})")


def check_bits(bits, group_size):
    """bits [N, 4, 16, group_size] as uint8; ValueError unless all 0/1."""
    bits = np.asarray(bits)
    check_layout(bits, group_size)
    with np.errstate(invalid="ignore"):  # a NaN or inf fails array_equal
        b = bits.astype(np.uint8, copy=False)
    if b.size and (b.max() > 1 or (b is not bits
                                   and not np.array_equal(b, bits))):
        raise ValueError("inputs must be binary")
    return b


def route_kernel(k, shape):
    """(reach, kmat, output shape) of kernel k on a channels-last input of
    shape [H, W, C] or (F,): a conv [O, C, kh, kw] through nn.tap_matrix, a
    dense [F, O] (reach None) reading a map through nn.channels_last_rows."""
    if k.ndim == 4:
        hh, ww, _ = shape
        return (*nn.tap_matrix(k, hh, ww), (hh, ww, len(k)))
    if len(shape) == 3:
        hh, ww, c = shape
        k = nn.channels_last_rows(k, c, hh, ww)
    return None, np.ascontiguousarray(k), (k.shape[1],)


def sum_range(kmat, skip, diff):
    """(lo, hi), int64: the range of each column's sum over 0/1 inputs, plus
    a skip bit; with diff, of the difference S1 - S0 of the two columns.
    Summed in float32, exact while fan-ins are below nn.F32_EXACT_LIMIT."""
    if diff:
        kmat = (kmat[:, 1] - kmat[:, 0])[:, None]
    lo, hi = np.minimum(kmat, 0).sum(axis=0), np.maximum(kmat, 0).sum(axis=0)
    return lo.astype(np.int64), hi.astype(np.int64) + skip


@dataclass
class ExactLayer:
    """One layer of the integer network, from a model (exact_layers) or a
    program (lowering). Channel c's integer sum S never leaves [lo[c],
    hi[c]], and there it fires iff (S > t[c]) ^ first[c]. A "compare"
    decision is one such indicator on S1 - S0; a "folded" one, channel 0."""
    name: str
    skip_from: str | None  # layer whose output bits join the sums
    reach: tuple | None  # conv: half-extents of the live taps (route_kernel)
    kmat: np.ndarray  # float32 GEMM matrix of the ternary codes, as routed
    fan_in: int  # widest channel's nonzero codes, plus the skip bit
    lo: np.ndarray  # int64
    hi: np.ndarray  # int64
    t: np.ndarray  # float32, in [lo - 1, hi]
    first: np.ndarray  # bool
    decision: str | None = None  # last layer: "folded" | "compare"
    # the table route's (table_route): layer 0's bits by input symbol,
    # uint8 [16, O]; layer 1's sums, [(taps, float32 [17**len(taps), O])]
    bit_table: np.ndarray | None = None
    sum_tables: list | None = None


# The table route keys a position by its symbol, the dot product of its 4
# input bits with SYMBOL_BITS (b0 | b1<<1 | b2<<2 | b3<<3), and the zero
# padding around a map by PAD_SYMBOL. A group of up to TAP_GROUP taps is
# keyed by its symbols in radix 17, below 17**3 < 2**16.
SYMBOL_BITS = np.array([1, 2, 4, 8], np.uint8)
PAD_SYMBOL = 16
TAP_GROUP = 3


def table_route(layers):
    """layers, with the table route's tables set on layers 0 and 1 when
    layer 0 is a 1x1 conv over the 4 input channels and layer 1 a conv with
    no skip and no decision, as on every model's and lowered program's
    layers; otherwise unchanged. Each side builds its own, from its own
    ExactLayers' kmat, t and first.

    Layer 0's bits at a position depend only on its symbol: bit_table holds
    ((patterns @ kmat) > t) ^ first for the 16 patterns. Layer 1's sums are
    then a sum over its live taps in (u, v) order of what the symbol read
    at each tap adds: per group of up to TAP_GROUP consecutive taps, a
    float32 table of the group's sums keyed by its symbols in radix 17, the
    first tap most significant, where PAD_SYMBOL adds 0. Each entry is an
    integer partial sum of at most fan_in 0/1 x +-1 terms, so the
    nn.check_f32_exact bound on fan_in holds for it and for the sum of the
    groups' entries: they are exact in float32."""
    if len(layers) < 2:
        return layers
    layer0, layer1 = layers[:2]
    if (layer0.reach != (0, 0) or len(layer0.kmat) != 4
            or layer0.decision is not None or layer1.reach is None
            or layer1.skip_from is not None or layer1.decision is not None):
        return layers
    patterns = (np.arange(16)[:, None] & SYMBOL_BITS) > 0  # [16, 4]
    bits = (patterns @ layer0.kmat > layer0.t) ^ layer0.first
    layer0.bit_table = bits.astype(np.uint8)
    rh, rw = layer1.reach
    taps = [(u, v) for u in range(2 * rh + 1) for v in range(2 * rw + 1)]
    width = layer1.kmat.shape[1]
    per_tap = np.zeros((len(taps), PAD_SYMBOL + 1, width), np.float32)
    per_tap[:, :PAD_SYMBOL] = bits.astype(np.float32) @ layer1.kmat.reshape(
        len(taps), -1, width)
    layer1.sum_tables = []
    for i in range(0, len(taps), TAP_GROUP):
        table = per_tap[i]
        for tap in per_tap[i + 1:i + TAP_GROUP]:
            table = (table[:, None] + tap).reshape(-1, width)
        layer1.sum_tables.append((taps[i:i + TAP_GROUP], table))
    return layers


def _table_sums(tables, symp, keys, part, out):
    """out [m, H, W, O] = the sums of table_route's sum_tables at every
    position of the padded symbols symp [m, H + 2rh, W + 2rw]; keys [m, H,
    W] uint16 and part (out's shape) are buffers. mode="clip" spares take a
    buffered copy of out; every key is in range."""
    hh, ww = out.shape[1:3]
    for i, (taps, table) in enumerate(tables):
        for j, (u, v) in enumerate(taps):
            window = symp[:, u:u + hh, v:v + ww]
            if j == 0:
                np.copyto(keys, window)
            else:
                keys *= PAD_SYMBOL + 1
                keys += window
        np.take(table, keys, axis=0, out=part if i else out, mode="clip")
        if i:
            out += part


def run_layers(layers, bits, return_planes=False):
    """The integer network on uint8 bits [N, 4, 16, g], run through all
    layers in blocks of block_samples(g) samples: per layer the sums
    (float32 GEMMs, exact while each fan_in < nn.F32_EXACT_LIMIT), the skip
    bits, one compare per channel, and an XOR only on a layer where some
    channel has first set. On the table route (table_route) layer 0's bits
    are one gather of its bit_table by symbol, and layer 1's sums one
    gather per tap group. Each layer's sums and bits go in buffers that
    are allocated once per call and reused by every block, so without
    return_planes the call holds one block at a time. Returns (labels,
    {name: channels-last bit plane, each allocated whole and written a block
    at a time} of the layers before a compare when return_planes, else {},
    its int64 S1 - S0 | None)."""
    n, g = len(bits), bits.shape[-1]
    step = max(1, min(n, block_samples(g)))
    rows = n if return_planes else step
    sums, planes, x32 = [], {}, {}
    for el in layers:
        shape = (16, g) if el.reach is not None else ()
        shape += (el.kmat.shape[1],)
        sums.append(np.empty((step,) + shape, np.float32))
        if el.reach is None:  # a dense layer's input, as float32
            x32[el.name] = np.empty((step, len(el.kmat)), np.float32)
        if el.decision != "compare":
            planes[el.name] = np.empty((rows,) + shape, np.uint8)
    compare = layers[-1].decision == "compare"
    labels = np.empty(n, np.uint8)
    d = np.empty(n, np.int64) if compare else None
    xors = [bool(el.first.any()) for el in layers]
    tabled = layers[0].bit_table is not None
    if tabled:  # a block's symbols, and again inside a padding border
        rh, rw = layers[1].reach
        sym = np.empty((step, 16, g), np.uint8)
        symp = np.full((step, 16 + 2 * rh, g + 2 * rw), PAD_SYMBOL, np.uint8)
        keys = np.empty((step, 16, g), np.uint16)
        part = np.empty_like(sums[1])
    for lo in range(0, n, step):
        m = min(step, n - lo)
        at = slice(lo, lo + m) if return_planes else slice(m)
        h = bits[lo:lo + m].transpose(0, 2, 3, 1)
        if tabled:
            np.einsum("mcp,c->mp", bits[lo:lo + m].reshape(m, 4, -1),
                      SYMBOL_BITS, out=sym[:m].reshape(m, -1))
            symp[:m, rh:rh + 16, rw:rw + g] = sym[:m]
        for el, s, xor in zip(layers, sums, xors):
            s = s[:m]
            if el.bit_table is not None:
                h = planes[el.name][at]
                np.take(el.bit_table, sym[:m], axis=0, out=h, mode="clip")
                continue
            if el.sum_tables is not None:
                _table_sums(el.sum_tables, symp[:m], keys[:m], part[:m], s)
            elif el.reach is not None:
                nn.conv_sums(h, el.reach, el.kmat, out=s)  # [m, 16, g, O]
            else:
                x = x32[el.name][:m]
                x[...] = h.reshape(m, -1)
                nn.matmul_rows(x, el.kmat, out=s)
            if el.decision == "compare":
                s = s.astype(np.int64)
                d[lo:lo + m] = s[:, 1] - s[:, 0]
                labels[lo:lo + m] = (d[lo:lo + m] > el.t[0]) ^ el.first[0]
                break
            if el.skip_from is not None:
                s += planes[el.skip_from][at]
            h = planes[el.name][at]
            fired = np.greater(s, el.t, out=h.view(bool))
            if xor:
                fired ^= el.first
        else:  # a folded decision: its one channel
            labels[lo:lo + m] = h[:, 0]
    return labels, planes if return_planes else {}, d


def named_planes(planes):
    """run_layers' planes as [(name, plane)], maps as [N, C, 16, g]."""
    return [(name, p.transpose(0, 3, 1, 2) if p.ndim == 4 else p)
            for name, p in planes.items()]


def exact_layers(model: Model):
    """The model's ExactLayers and their table_route tables, built once
    per model content: they are rebuilt whenever the config or any weight,
    delta or norm value has changed since (Adam and hand edits work in
    place)."""
    if model.stage != "full":
        raise ValueError("exact evaluation requires the fully quantized stage")
    specs = layer_specs(model.cfg)
    arrays = []
    for spec in specs:
        norm = model.norms[spec.name]
        arrays += [model.weights[spec.name], model.deltas[spec.name],
                   getattr(norm, "eps", 0.0),
                   *_norm_tensors(spec, norm).values()]
    return content_cached(model, "_exact", tuple(vars(model.cfg).items()),
                          arrays, lambda: _build_exact_layers(model, specs))


def _build_exact_layers(model, specs):
    """One ExactLayer per spec, with the table route's tables."""
    shape = (16, model.cfg.group_size, 4)
    layers = []
    for spec in specs:
        delta = model.delta_of(spec.name)
        # ternary codes; conv [O, C, kh, kw], dense [in, out]
        codes = extract_ternary(model.weights[spec.name], delta).codes
        rows = codes.reshape(len(codes), -1) if codes.ndim == 4 else codes.T
        skip = spec.skip_from is not None
        fan_in = skip + int(np.count_nonzero(rows, axis=1).max())
        reach, kmat, shape = route_kernel(codes.astype(np.float32), shape)
        last = spec is specs[-1]  # decides on S1 - S0
        lo, hi = sum_range(kmat, skip, diff=last)
        t, first = exact_predicate(model, spec).switch_points(lo, hi)
        layers.append(ExactLayer(spec.name, spec.skip_from, reach, kmat,
                                 fan_in, lo, hi, t.astype(np.float32), first,
                                 "compare" if last else None))
    return table_route(layers)


def exact_bit_forward(model: Model, bits, return_planes=False):
    """Exact evaluation of a fully quantized model on binary inputs:
    run_layers over exact_layers, each fan-in checked on every call. Returns
    (labels, scores) or (labels, scores, planes), one plane per layer plus
    "out.sum_diff" - scores are float and for reporting only."""
    layers = exact_layers(model)
    for el in layers:
        nn.check_f32_exact(el.name, el.fan_in)
    labels, planes, d = run_layers(
        layers, check_bits(bits, model.cfg.group_size), return_planes)
    name = layers[-1].name
    b = model.norms[name].astype(np.float64)  # b1 - b0 correctly rounded
    scores = 1.0 / (1.0 + np.exp(-(model.delta_of(name) * d.astype(np.float64)
                                   + (b[1] - b[0]))))
    if return_planes:
        return labels, scores, named_planes(planes) + [
            (name, labels[:, None]), (name + ".sum_diff", d)]
    return labels, scores


# ---------------------------------------------------------------- evaluate

def evaluate(model: Model, dataset: Dataset):
    """(accuracy, confusion) under the decision-threshold rule. Both routes
    stream the set in blocks of block_samples(g) samples."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.group_size != model.cfg.group_size:
        raise ValueError(f"dataset group_size {dataset.group_size} does not "
                         f"match model group_size {model.cfg.group_size}")
    if model.stage == "full":
        pred, _ = exact_bit_forward(model, dataset.bits)
    else:
        pred = model.scores(dataset.bits) >= model.cfg.decision_threshold
    return confusion(pred, dataset.labels)


def confusion(pred, truth):
    """(accuracy, {tp, tn, fp, fn}) of 0/1 predictions against 0/1 labels,
    1 being real; pred must not be empty."""
    counts = {
        "tp": int(np.sum((pred == 1) & (truth == 1))),
        "tn": int(np.sum((pred == 0) & (truth == 0))),
        "fp": int(np.sum((pred == 1) & (truth == 0))),
        "fn": int(np.sum((pred == 0) & (truth == 1))),
    }
    return (counts["tp"] + counts["tn"]) / len(pred), counts


# ------------------------------------------------------------------- train

@dataclass
class TrainHyper:
    epochs: int = 20
    batch_size: int = 512
    lr: float = 1e-3
    patience: int = 5
    seed: int = 0


@dataclass
class TrainReport:
    entries: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = float("nan")


def train(model: Model, train_set: Dataset, val_set: Dataset,
          hyper: TrainHyper = None, quant: QuantSchedule = None,
          on_epoch=None):
    """Returns (best model, report). With a schedule, stages run
    fp -> weights -> full and the best checkpoint is chosen within the
    final stage (earlier stages compute a different function). on_epoch,
    if given, is called with each epoch's report entry."""
    hyper = hyper or TrainHyper()
    if hyper.batch_size < 2:
        raise ValueError("batch_size must be >= 2 for batchnorm statistics")
    for ds in (train_set, val_set):
        if ds.group_size != model.cfg.group_size:
            raise ValueError("dataset group_size does not match the model")
    if train_set.rounds != val_set.rounds:
        raise ValueError("train and validation sets use different round counts")

    epochs = quant.total_epochs if quant is not None else hyper.epochs
    report = TrainReport()
    if epochs == 0:
        return model, report

    x_all, y_all = train_set.float_inputs()
    opt = nn.Adam(lr=hyper.lr)
    shuffle = np.random.default_rng(hyper.seed)
    final_stage = quant.stage_at(epochs - 1) if quant is not None else model.stage
    best_acc, best_state, best_epoch = -1.0, None, -1
    stall = 0

    for epoch in range(epochs):
        t0 = time.monotonic()
        if quant is not None:
            model.set_stage(quant.stage_at(epoch))
        perm = shuffle.permutation(len(x_all))
        loss_sum, acc_sum, batches = 0.0, 0.0, 0
        for lo in range(0, len(perm), hyper.batch_size):
            idx = perm[lo:lo + hyper.batch_size]
            if len(idx) < 2:
                continue  # batchnorm cannot use a single-sample batch
            xb, yb = x_all[idx], y_all[idx]
            logits, cache = model.forward(xb, training=True)
            loss, dlogits = nn.softmax_xent(logits, yb)
            grads = model.backward(dlogits, cache)
            opt.step(model.param_dict(), grads)
            model.project_deltas()
            loss_sum += float(loss)
            p_real = nn.softmax(logits)[:, 1]
            pred = p_real >= model.cfg.decision_threshold
            acc_sum += float(np.mean(pred == (yb == 1)))
            batches += 1
        val_acc, _ = evaluate(model, val_set)
        report.entries.append({
            "epoch": epoch, "stage": model.stage,
            "loss": loss_sum / max(batches, 1),
            "train_acc": acc_sum / max(batches, 1),
            "val_acc": val_acc,
            "seconds": time.monotonic() - t0,
        })
        if on_epoch is not None:
            on_epoch(report.entries[-1])
        if model.stage == final_stage:
            if val_acc > best_acc:
                best_acc, best_state, best_epoch = val_acc, model.clone(), epoch
                stall = 0
            else:
                stall += 1
                if stall > hyper.patience:
                    break

    if best_state is not None:
        model = best_state
        report.best_epoch = best_epoch
        report.best_val_acc = best_acc
    return model, report


# ------------------------------------------------------------- persistence

def save_model(model: Model, path):
    tensors = {}
    for spec in layer_specs(model.cfg):
        tensors[f"{spec.name}.w"] = model.weights[spec.name]
        tensors.update(_norm_tensors(spec, model.norms[spec.name]))
    meta = {
        "kind": "distinguisher",
        "stage": model.stage,
        "deltas": {k: float(v) for k, v in model.deltas.items()},
        "config": {**vars(model.cfg),
                   "dense_sizes": list(model.cfg.dense_sizes)},
    }
    save_weights(path, tensors, meta)


def load_model(path) -> Model:
    """Reads a checkpoint; a missing or misshapen tensor or a missing meta
    key raises ValueError naming the file and the key."""
    tensors, meta = load_weights(path)
    for key, typ in (("kind", str), ("stage", str), ("deltas", dict),
                     ("config", dict)):
        if not isinstance(meta, dict) or not isinstance(meta.get(key), typ):
            raise ValueError(f"{path}: checkpoint meta has no {key!r} "
                             f"{typ.__name__}")
    if meta["kind"] != "distinguisher":
        raise ValueError(f"{path}: not a distinguisher checkpoint")
    if meta["stage"] not in STAGES:
        raise ValueError(f"{path}: unknown stage {meta['stage']!r}")
    try:
        c = dict(meta["config"])
        c["dense_sizes"] = tuple(c["dense_sizes"])
        cfg = ModelConfig(**c)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad 'config': {e}") from None
    for name, delta in meta["deltas"].items():
        # bools are ints; an int past the float range is not finite either
        if (type(delta) not in (int, float)
                or not abs(delta) <= sys.float_info.max):
            raise ValueError(f"{path}: checkpoint meta 'deltas.{name}' is "
                             f"not a finite number")

    def tensor(key, shape):
        if key not in tensors:
            raise ValueError(f"{path}: checkpoint has no tensor {key!r}")
        if tensors[key].shape != shape:
            raise ValueError(f"{path}: tensor {key!r} has shape "
                             f"{list(tensors[key].shape)}, expected "
                             f"{list(shape)}")
        return tensors[key]

    weights, norms = {}, {}
    for spec in layer_specs(cfg):
        weights[spec.name] = tensor(f"{spec.name}.w", spec.weight_shape)
        width = (spec.out_width,)
        if spec.norm == "bn":
            norms[spec.name] = nn.BnState(**{
                attr: tensor(f"{spec.norm_key}.{suffix}", width)
                for suffix, attr in _BN_TENSORS})
        else:
            norms[spec.name] = tensor(f"{spec.norm_key}.b", width)
        if meta["stage"] != "fp" and spec.name not in meta["deltas"]:
            raise ValueError(f"{path}: checkpoint meta has no "
                             f"'deltas.{spec.name}'")
    model = Model(cfg, weights, norms)
    model.deltas = {k: np.array(v, dtype=np.float64)
                    for k, v in meta["deltas"].items()}
    model.stage = meta["stage"]
    return model
