"""The residual distinguisher: assembly, staged training, evaluation.

Architecture: 1x1 conv (4 -> channels) + batchnorm + activation, then
residual blocks of two 3x3 'same' convs with batchnorm and a skip
connection, then a dense head (flatten -> 64 -> 64 -> 2) with softmax. A
sample is called real when the softmax probability of the real class is at
least the decision threshold (0.505 by default, boundary inclusive).

Quantization stages: "fp" trains plain float weights; "weights" substitutes
fake-quantized ternary weights (straight-through gradients, learned step
sizes); "full" additionally binarizes every hidden activation, and the skip
connection enters the second conv's pre-normalization sum scaled by that
conv's step size, so the whole network computes integer accumulator sums of
input bits. In the "full" stage the model's reference semantics is exact
rational arithmetic over those integer sums (exact_bit_forward); evaluate()
and classify() route through it, which is what lowered programs are
verified against. exact_bit_forward sums the ternary codes in float32 GEMMs
(nn.conv_sums), exact because it asserts that every channel's fan-in plus
its skip bit stays below nn.F32_EXACT_LIMIT. Each indicator's rational
predicate is affine in the integer sum, so it is decided from the point
where it switches over the batch's observed range, found by evaluating
that predicate at a few integers; nothing is taken from the lowering's
folded thresholds.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import nn
from .dataset import Dataset, REAL
from .quant import (STAGES, binarize_activation, binarize_activation_grad,
                    extract_ternary, init_step_size, quantize_weights,
                    step_size_grad, ste_weight_grad, QuantSchedule)
from .checkpoint import load_weights, save_weights

_ACTIVATIONS = ("relu", "sigmoid")
# Feature-map positions (samples x 16 x group size) per float forward in
# Model.scores, with at least 64 samples; its buffers grow with positions.
SCORE_ROWS = 8192


@dataclass
class ModelConfig:
    group_size: int = 8
    channels: int = 32
    residual_blocks: int = 1
    dense_sizes: tuple = (64, 64)
    decision_threshold: float = 0.505
    hidden_activation: str = "relu"

    def __post_init__(self):
        if self.group_size < 1 or self.channels < 1 or self.residual_blocks < 1:
            raise ValueError("group_size, channels, residual_blocks must be >= 1")
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


@dataclass
class ResBlock:
    w1: np.ndarray  # [C, C, 3, 3]
    bn1: nn.BnState
    w2: np.ndarray  # [C, C, 3, 3]
    bn2: nn.BnState


class Model:
    def __init__(self, cfg: ModelConfig, conv0_w, bn0, blocks, d1_w, d1_b,
                 d2_w, d2_b, out_w, out_b):
        self.cfg = cfg
        self.stage = "fp"
        self.conv0_w = conv0_w
        self.bn0 = bn0
        self.blocks = blocks
        self.d1_w, self.d1_b = d1_w, d1_b
        self.d2_w, self.d2_b = d2_w, d2_b
        self.out_w, self.out_b = out_w, out_b
        # name -> 0-d float64 array, learnable in quantized stages
        self.deltas = {}

    # ------------------------------------------------------------ plumbing

    def quant_layer_names(self):
        names = ["conv0"]
        for i in range(len(self.blocks)):
            names += [f"res{i}.c1", f"res{i}.c2"]
        return names + ["dense1", "dense2", "out"]

    def _weight_of(self, name):
        if name == "conv0":
            return self.conv0_w
        if name.startswith("res"):
            i = int(name[3:name.index(".")])
            return self.blocks[i].w1 if name.endswith("c1") else self.blocks[i].w2
        return {"dense1": self.d1_w, "dense2": self.d2_w, "out": self.out_w}[name]

    def set_stage(self, stage):
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}, expected one of {STAGES}")
        if stage != "fp":
            for name in self.quant_layer_names():
                if name not in self.deltas:
                    self.deltas[name] = np.array(
                        init_step_size(self._weight_of(name)), dtype=np.float64)
        self.stage = stage

    def delta_of(self, name):
        return float(self.deltas[name])

    def _effective(self, name):
        """(effective weight, raw weight, delta|None) for the current stage."""
        w = self._weight_of(name)
        if self.stage == "fp":
            return w, w, None
        d = self.delta_of(name)
        return quantize_weights(w, d).astype(np.float32), w, d

    def param_dict(self):
        p = {"conv0.w": self.conv0_w,
             "bn0.gamma": self.bn0.gamma, "bn0.beta": self.bn0.beta}
        for i, blk in enumerate(self.blocks):
            p[f"res{i}.c1.w"] = blk.w1
            p[f"res{i}.bn1.gamma"] = blk.bn1.gamma
            p[f"res{i}.bn1.beta"] = blk.bn1.beta
            p[f"res{i}.c2.w"] = blk.w2
            p[f"res{i}.bn2.gamma"] = blk.bn2.gamma
            p[f"res{i}.bn2.beta"] = blk.bn2.beta
        p.update({"dense1.w": self.d1_w, "dense1.b": self.d1_b,
                  "dense2.w": self.d2_w, "dense2.b": self.d2_b,
                  "out.w": self.out_w, "out.b": self.out_b})
        if self.stage != "fp":
            for name in self.quant_layer_names():
                p[f"delta.{name}"] = self.deltas[name]
        return p

    def project_deltas(self):
        for d in self.deltas.values():
            np.maximum(d, 1e-8, out=d)

    def clone(self):
        return copy.deepcopy(self)

    # ------------------------------------------------------------- forward

    def _act(self, x):
        if self.stage == "full":
            return binarize_activation(x)
        if self.cfg.hidden_activation == "sigmoid":
            return nn.sigmoid(x)
        return nn.relu(x)

    def _act_grad(self, dy, cache):
        if self.stage == "full":
            return binarize_activation_grad(dy, cache)
        if self.cfg.hidden_activation == "sigmoid":
            return nn.sigmoid_grad(dy, cache)
        return nn.relu_grad(dy, cache)

    def _check_input(self, x):
        want = (4, 16, self.cfg.group_size)
        if x.ndim != 4 or x.shape[1:] != want:
            raise ValueError(f"input shape {x.shape[1:]} does not match model "
                             f"layout {want}")

    def forward(self, x, training):
        """Float-route forward. Returns (logits [N,2], cache)."""
        self._check_input(x)
        qcache = {}

        def eff(name):
            w_eff, w, d = self._effective(name)
            qcache[name] = (w, d)
            return w_eff

        y, c0_conv = nn.conv2d(x, eff("conv0"))
        y, c0_bn = nn.batchnorm(y, self.bn0, training)
        h, c0_act = self._act(y)

        block_caches = []
        for i, blk in enumerate(self.blocks):
            h0 = h
            y1, c1_conv = nn.conv2d(h0, eff(f"res{i}.c1"))
            y1, c1_bn = nn.batchnorm(y1, blk.bn1, training)
            a1, c1_act = self._act(y1)
            y2, c2_conv = nn.conv2d(a1, eff(f"res{i}.c2"))
            # In the full stage the skip joins pre-normalization at the same
            # scale as the quantized weights, so the accumulated sum stays an
            # integer multiple of delta. The scale is a constant in backward.
            lam = self.delta_of(f"res{i}.c2") if self.stage == "full" else 1.0
            pre2 = y2 + lam * h0
            y2n, c2_bn = nn.batchnorm(pre2, blk.bn2, training)
            h, c2_act = self._act(y2n)
            block_caches.append((c1_conv, c1_bn, c1_act, c2_conv, c2_bn,
                                 c2_act, lam))

        n = x.shape[0]
        flat_shape = h.shape
        flat = h.reshape(n, -1)
        z1, cd1 = nn.dense(flat, *self._dense_eff("dense1", qcache))
        f1, ca1 = self._act(z1)
        z2, cd2 = nn.dense(f1, *self._dense_eff("dense2", qcache))
        f2, ca2 = self._act(z2)
        logits, cout = nn.dense(f2, *self._dense_eff("out", qcache))
        cache = (c0_conv, c0_bn, c0_act, block_caches, flat_shape,
                 cd1, ca1, cd2, ca2, cout, qcache)
        return logits, cache

    def _dense_eff(self, name, qcache):
        w_eff, w, d = self._effective(name)
        qcache[name] = (w, d)
        bias = {"dense1": self.d1_b, "dense2": self.d2_b, "out": self.out_b}[name]
        return w_eff, bias

    # ------------------------------------------------------------ backward

    def _quant_grads(self, name, dw_eff, qcache, grads):
        """Map the effective-weight gradient back to (w, delta) gradients."""
        w, d = qcache[name]
        grads[f"{name}.w"] = ste_weight_grad(dw_eff)
        if d is not None:
            grads[f"delta.{name}"] = np.array(step_size_grad(w, d, dw_eff),
                                              dtype=np.float64)

    def backward(self, dlogits, cache):
        (c0_conv, c0_bn, c0_act, block_caches, flat_shape,
         cd1, ca1, cd2, ca2, cout, qcache) = cache
        grads = {}

        df2, dw, db = nn.dense_grad(dlogits, cout)
        self._quant_grads("out", dw, qcache, grads)
        grads["out.b"] = db
        dz2 = self._act_grad(df2, ca2)
        df1, dw, db = nn.dense_grad(dz2, cd2)
        self._quant_grads("dense2", dw, qcache, grads)
        grads["dense2.b"] = db
        dz1 = self._act_grad(df1, ca1)
        dflat, dw, db = nn.dense_grad(dz1, cd1)
        self._quant_grads("dense1", dw, qcache, grads)
        grads["dense1.b"] = db

        dh = dflat.reshape(flat_shape)
        for i in range(len(self.blocks) - 1, -1, -1):
            c1_conv, c1_bn, c1_act, c2_conv, c2_bn, c2_act, lam = block_caches[i]
            dy2n = self._act_grad(dh, c2_act)
            dpre2, dgamma, dbeta = nn.batchnorm_grad(dy2n, c2_bn)
            grads[f"res{i}.bn2.gamma"] = dgamma
            grads[f"res{i}.bn2.beta"] = dbeta
            da1, dw, _ = nn.conv2d_grad(dpre2, c2_conv)
            self._quant_grads(f"res{i}.c2", dw, qcache, grads)
            dy1 = self._act_grad(da1, c1_act)
            dy1, dgamma, dbeta = nn.batchnorm_grad(dy1, c1_bn)
            grads[f"res{i}.bn1.gamma"] = dgamma
            grads[f"res{i}.bn1.beta"] = dbeta
            dh0, dw, _ = nn.conv2d_grad(dy1, c1_conv)
            self._quant_grads(f"res{i}.c1", dw, qcache, grads)
            dh = dh0 + lam * dpre2

        dy = self._act_grad(dh, c0_act)
        dy, dgamma, dbeta = nn.batchnorm_grad(dy, c0_bn)
        grads["bn0.gamma"] = dgamma
        grads["bn0.beta"] = dbeta
        _, dw, _ = nn.conv2d_grad(dy, c0_conv)
        self._quant_grads("conv0", dw, qcache, grads)
        return grads

    # ----------------------------------------------------------- inference

    def scores(self, x):
        """Float-route softmax probability of the real class, [N]. The
        forward runs on blocks of about SCORE_ROWS positions, so its buffers
        do not grow with N."""
        x = np.asarray(x, dtype=np.float32)
        step = max(64, SCORE_ROWS // (16 * self.cfg.group_size))
        return np.concatenate([
            nn.softmax(self.forward(x[i:i + step], training=False)[0])[:, 1]
            for i in range(0, len(x), step)])


# ------------------------------------------------------------------- build

def build_model(cfg: ModelConfig, seed=0) -> Model:
    """He-initialized model; deterministic under seed."""
    r = np.random.default_rng(seed)

    def he(shape, fan_in):
        return r.normal(0.0, math.sqrt(2.0 / fan_in), size=shape).astype(np.float32)

    c = cfg.channels
    conv0_w = he((c, 4, 1, 1), 4)
    blocks = []
    for _ in range(cfg.residual_blocks):
        blocks.append(ResBlock(
            w1=he((c, c, 3, 3), c * 9), bn1=nn.BnState.create(c, dtype=np.float32),
            w2=he((c, c, 3, 3), c * 9), bn2=nn.BnState.create(c, dtype=np.float32)))
    d1, d2 = cfg.dense_sizes
    flat = cfg.flatten_width
    model = Model(cfg, conv0_w, nn.BnState.create(c, dtype=np.float32), blocks,
                  d1_w=he((flat, d1), flat), d1_b=np.zeros(d1, np.float32),
                  d2_w=he((d1, d2), d1), d2_b=np.zeros(d2, np.float32),
                  out_w=he((d2, 2), d2), out_b=np.zeros(2, np.float32))
    return model


# ----------------------------------------------------------- exact forward

def _frac(x):
    return Fraction(float(x))


def _switch_bits(s, pred, slope, offset):
    """Bits of an affine rational predicate per channel; channel axis last.

    s holds integer sums. pred(c, S) is affine in the integer S, so it holds
    on a half-line of the integers, everywhere or nowhere, and switches at
    most once over a channel's observed range [lo, hi]. It is evaluated at
    lo and hi and, where those differ, at the few integers that pin the
    switch point t, with pred(t) == pred(lo) != pred(t + 1). The float64
    estimate slope * S + offset of the predicate's left side only picks the
    first integers tried.
    """
    flat = s.reshape(-1, s.shape[-1])
    lo = flat.min(axis=0).astype(np.int64)
    hi = flat.max(axis=0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = -np.asarray(offset, np.float64) / np.asarray(slope, np.float64)
    guess = np.floor(np.clip(np.where(np.isnan(root), lo, root), lo, hi))
    t = np.empty(len(lo), dtype=s.dtype)
    first = np.empty(len(lo), dtype=bool)
    for c in range(len(lo)):
        a, b = int(lo[c]), int(hi[c])
        first[c] = below = pred(c, a)
        if pred(c, b) == below:
            t[c] = b  # constant over the observed range
            continue
        # pred(a) == below != pred(b). Rounding aside, the estimate is
        # within one of t, so these probes usually end the search.
        g = int(guess[c])
        probes = [g, g + 1, g - 1, g + 2]
        while b - a > 1:
            m = probes.pop(0) if probes else (a + b) // 2
            if a < m < b:
                if pred(c, m) == below:
                    a = m
                else:
                    b = m
        t[c] = a
    return ((s > t) ^ first).view(np.uint8)


def _exact_bn_bits(s, bn: nn.BnState, delta):
    """bit = [gamma*(delta*S - mu)/sigma + beta > 0], exactly, per channel."""
    dlt = _frac(delta)
    gam = [_frac(v) for v in bn.gamma]
    bet = [_frac(v) for v in bn.beta]
    mu = [_frac(v) for v in bn.running_mean]
    sig = [_frac(nn.bn_sigma(v, bn.eps)) for v in bn.running_var]

    def pred(c, s):
        return gam[c] * (dlt * s - mu[c]) + bet[c] * sig[c] > 0

    gamma = np.asarray(bn.gamma, np.float64)
    sigma = np.sqrt(np.asarray(bn.running_var, np.float64) + bn.eps)
    return _switch_bits(s, pred, gamma * float(delta),
                        bn.beta * sigma - gamma * bn.running_mean)


def _exact_bias_bits(s, bias, delta):
    """bit = [delta*S + b > 0], exactly, per channel."""
    dlt = _frac(delta)
    b = [_frac(v) for v in bias]

    def pred(c, s):
        return dlt * s + b[c] > 0

    return _switch_bits(s, pred, float(delta), np.asarray(bias, np.float64))


def exact_bit_forward(model: Model, bits, return_planes=False):
    """Exact evaluation of a fully quantized model on binary inputs.

    Integer accumulator sums of the ternary codes are float32 GEMMs
    (nn.conv_sums), exact because every channel's fan-in plus its skip bit
    is checked to stay below nn.F32_EXACT_LIMIT; every normalization / bias
    indicator is decided in rational arithmetic; the final decision
    compares the exact logit difference against log(t / (1-t)) pinned to
    its float64 value. Returns (labels, scores) or (labels, scores, planes)
    - scores are float and for reporting only.
    """
    if model.stage != "full":
        raise ValueError("exact evaluation requires the fully quantized stage")
    bits = np.asarray(bits)
    model._check_input(bits)
    if bits.dtype != np.uint8:
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("exact evaluation expects binary inputs")
        bits = bits.astype(np.uint8)
    n, hh, ww = bits.shape[0], 16, model.cfg.group_size

    def codes(name, skip=0):
        """float32 ternary codes; conv [O, C, kh, kw], dense [in, out]."""
        c = extract_ternary(model._weight_of(name), model.delta_of(name)).codes
        rows = c.reshape(len(c), -1) if c.ndim == 4 else c.T
        nn.check_f32_exact(name, skip + int(np.count_nonzero(rows, axis=1).max()))
        return c.astype(np.float32)

    def conv(name, x, skip=None):
        """Channels-last sums [N, 16, g, O]; skip bits join the sums."""
        reach, kmat = nn.tap_matrix(codes(name, skip is not None), hh, ww)
        s = nn.conv_sums(x, reach, kmat)
        if skip is not None:
            s += skip
        return s

    planes = []  # channels-last until returned
    h = _exact_bn_bits(conv("conv0", bits.transpose(0, 2, 3, 1)), model.bn0,
                       model.delta_of("conv0"))
    planes.append(("conv0", h))
    for i, blk in enumerate(model.blocks):
        h0 = h
        a1 = _exact_bn_bits(conv(f"res{i}.c1", h0), blk.bn1,
                            model.delta_of(f"res{i}.c1"))
        planes.append((f"res{i}.c1", a1))
        h = _exact_bn_bits(conv(f"res{i}.c2", a1, skip=h0), blk.bn2,
                           model.delta_of(f"res{i}.c2"))
        planes.append((f"res{i}.c2", h))

    w1 = nn.channels_last_rows(codes("dense1"), model.cfg.channels, hh, ww)
    f1 = _exact_bias_bits(h.reshape(n, -1).astype(np.float32) @ w1,
                          model.d1_b, model.delta_of("dense1"))
    planes.append(("dense1", f1))
    f2 = _exact_bias_bits(f1.astype(np.float32) @ codes("dense2"),
                          model.d2_b, model.delta_of("dense2"))
    planes.append(("dense2", f2))
    s_out = (f2.astype(np.float32) @ codes("out")).astype(np.int64)

    d = s_out[:, 1] - s_out[:, 0]
    dlt = _frac(model.delta_of("out"))
    db = _frac(model.out_b[1]) - _frac(model.out_b[0])
    thr = model.cfg.decision_threshold
    level = _frac(math.log(thr / (1.0 - thr)))

    def pred(_, s):
        return dlt * s + db >= level

    labels = _switch_bits(d[:, None], pred, float(dlt),
                          np.array([float(db) - float(level)]))[:, 0]
    margin = float(dlt) * d.astype(np.float64) + float(db)
    scores = 1.0 / (1.0 + np.exp(-margin))
    if return_planes:
        planes = [(name, p.transpose(0, 3, 1, 2) if p.ndim == 4 else p)
                  for name, p in planes]
        planes.append(("out.sum_diff", d))
        return labels, scores, planes
    return labels, scores


# -------------------------------------------------------- classify/evaluate

def classify(model: Model, sample):
    """(label, score) for one sample; label is real iff score passes the
    model's decision threshold (inclusive)."""
    bits = sample.bits if hasattr(sample, "bits") else np.asarray(sample)
    x = bits[None]
    if model.stage == "full":
        labels, scores = exact_bit_forward(model, x)
        return int(labels[0]), float(scores[0])
    score = float(model.scores(x.astype(np.float32))[0])
    label = REAL if score >= model.cfg.decision_threshold else 1 - REAL
    return label, score


def evaluate(model: Model, dataset: Dataset, batch_size=4096):
    """(accuracy, confusion) under the decision-threshold rule."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.group_size != model.cfg.group_size:
        raise ValueError(f"dataset group_size {dataset.group_size} does not "
                         f"match model group_size {model.cfg.group_size}")
    pred = np.empty(n, dtype=np.uint8)
    for i in range(0, n, batch_size):
        xb = dataset.bits[i:i + batch_size]
        if model.stage == "full":
            pred[i:i + batch_size], _ = exact_bit_forward(model, xb)
        else:
            sc = model.scores(xb.astype(np.float32))
            pred[i:i + batch_size] = sc >= model.cfg.decision_threshold
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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 5
    seed: int = 0


@dataclass
class TrainReport:
    entries: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = float("nan")


def train(model: Model, train_set: Dataset, val_set: Dataset,
          hyper: TrainHyper = None, quant: QuantSchedule = None):
    """Returns (best model, report). With a schedule, stages run
    fp -> weights -> full and the best checkpoint is chosen within the
    final stage (earlier stages compute a different function)."""
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
    opt = nn.Adam(lr=hyper.lr, beta1=hyper.beta1, beta2=hyper.beta2,
                  eps=hyper.adam_eps)
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
    tensors = {"conv0.w": model.conv0_w}
    _bn_tensors(tensors, "bn0", model.bn0)
    for i, blk in enumerate(model.blocks):
        tensors[f"res{i}.c1.w"] = blk.w1
        _bn_tensors(tensors, f"res{i}.bn1", blk.bn1)
        tensors[f"res{i}.c2.w"] = blk.w2
        _bn_tensors(tensors, f"res{i}.bn2", blk.bn2)
    tensors.update({"dense1.w": model.d1_w, "dense1.b": model.d1_b,
                    "dense2.w": model.d2_w, "dense2.b": model.d2_b,
                    "out.w": model.out_w, "out.b": model.out_b})
    cfg = model.cfg
    meta = {
        "kind": "distinguisher",
        "stage": model.stage,
        "deltas": {k: float(v) for k, v in model.deltas.items()},
        "config": {
            "group_size": cfg.group_size, "channels": cfg.channels,
            "residual_blocks": cfg.residual_blocks,
            "dense_sizes": list(cfg.dense_sizes),
            "decision_threshold": cfg.decision_threshold,
            "hidden_activation": cfg.hidden_activation,
        },
    }
    save_weights(path, tensors, meta)


def _bn_tensors(tensors, prefix, bn):
    tensors[f"{prefix}.gamma"] = bn.gamma
    tensors[f"{prefix}.beta"] = bn.beta
    tensors[f"{prefix}.mean"] = bn.running_mean
    tensors[f"{prefix}.var"] = bn.running_var


def _bn_from(tensors, prefix):
    return nn.BnState(gamma=tensors[f"{prefix}.gamma"],
                      beta=tensors[f"{prefix}.beta"],
                      running_mean=tensors[f"{prefix}.mean"],
                      running_var=tensors[f"{prefix}.var"])


def load_model(path) -> Model:
    tensors, meta = load_weights(path)
    if meta.get("kind") != "distinguisher":
        raise ValueError(f"{path}: not a distinguisher checkpoint")
    c = dict(meta["config"])
    c["dense_sizes"] = tuple(c["dense_sizes"])
    cfg = ModelConfig(**c)
    blocks = [ResBlock(w1=tensors[f"res{i}.c1.w"],
                       bn1=_bn_from(tensors, f"res{i}.bn1"),
                       w2=tensors[f"res{i}.c2.w"],
                       bn2=_bn_from(tensors, f"res{i}.bn2"))
              for i in range(cfg.residual_blocks)]
    model = Model(cfg, tensors["conv0.w"], _bn_from(tensors, "bn0"), blocks,
                  d1_w=tensors["dense1.w"], d1_b=tensors["dense1.b"],
                  d2_w=tensors["dense2.w"], d2_b=tensors["dense2.b"],
                  out_w=tensors["out.w"], out_b=tensors["out.b"])
    model.deltas = {k: np.array(v, dtype=np.float64)
                    for k, v in meta["deltas"].items()}
    model.stage = meta["stage"]
    return model
