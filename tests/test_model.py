"""Model assembly, training loop, and exact-evaluation tests.

The exact-forward oracle here re-derives everything from definitions:
python-loop convolutions, rational batchnorm with explicit division, and
an explicit softmax-threshold comparison. It shares only the pinned float64
stand-ins for sqrt(var+eps) and log(t/(1-t)) with the implementation,
because those pins ARE the semantics.
"""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndlite import lowering, nn
from ndlite import model as model_module
from ndlite.dataset import gen_dataset
from ndlite.model import (ExactPredicate, Model, ModelConfig, TrainHyper,
                          _bias_predicate, _bn_predicate, build_model,
                          evaluate, exact_bit_forward, exact_layers,
                          layer_specs, load_model, run_layers, save_model,
                          sum_range, train)
from ndlite.quant import QuantSchedule, extract_ternary

from exact_reference import channel_lut_bits


def small_cfg(**kw):
    base = dict(group_size=1, channels=3, residual_blocks=1,
                dense_sizes=(6, 5))
    base.update(kw)
    return ModelConfig(**base)


# ----------------------------------------------------------------- assembly

def test_build_default_shapes():
    m = build_model(ModelConfig(), seed=0)
    assert m.weights["conv0"].shape == (32, 4, 1, 1)          # 128 weights
    assert m.weights["res0.c1"].shape == (32, 32, 3, 3)    # 9216 weights
    assert m.weights["res0.c2"].shape == (32, 32, 3, 3)
    assert m.weights["dense1"].shape == (4096, 64)
    assert m.weights["dense2"].shape == (64, 64)
    assert m.weights["out"].shape == (64, 2)
    assert m.weights["conv0"].dtype == np.float32


def test_build_g1_flatten_width():
    m = build_model(ModelConfig(group_size=1), seed=0)
    assert m.weights["dense1"].shape[0] == 512


def test_build_deterministic():
    a = build_model(ModelConfig(), seed=7)
    b = build_model(ModelConfig(), seed=7)
    c = build_model(ModelConfig(), seed=8)
    assert np.array_equal(a.weights["conv0"], b.weights["conv0"])
    assert np.array_equal(a.weights["dense1"], b.weights["dense1"])
    assert not np.array_equal(a.weights["conv0"], c.weights["conv0"])


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(group_size=0)
    with pytest.raises(ValueError):
        ModelConfig(decision_threshold=1.0)
    with pytest.raises(ValueError):
        ModelConfig(hidden_activation="tanh")
    with pytest.raises(ValueError):
        ModelConfig(dense_sizes=(64,))


def test_forward_shapes_and_input_check():
    for g in (1, 8):
        m = build_model(ModelConfig(group_size=g), seed=1)
        x = np.random.default_rng(0).integers(0, 2, size=(6, 4, 16, g))
        logits, _ = m.forward(x.astype(np.float32), training=False)
        assert logits.shape == (6, 2)
    with pytest.raises(ValueError):
        m.forward(np.zeros((2, 4, 16, 3), dtype=np.float32), training=False)


def test_residual_block_is_identity_when_zeroed():
    # A two-block model whose second block has zero convs and exactly
    # identity batchnorm must equal the one-block model built from the same
    # pieces: the skip path then reproduces the block input bit for bit.
    cfg2 = small_cfg(residual_blocks=2)
    m2 = build_model(cfg2, seed=3)
    m2.weights["res1.c1"][:] = 0.0
    m2.weights["res1.c2"][:] = 0.0
    for bn in (m2.norms["res1.c1"], m2.norms["res1.c2"]):
        bn.gamma[:] = 1.0
        bn.beta[:] = 0.0
        bn.running_mean[:] = 0.0
        bn.running_var[:] = 1.0 - bn.eps  # sqrt(var + eps) == 1 exactly

    m1 = build_model(small_cfg(residual_blocks=1), seed=3)
    for name in ("conv0", "res0.c1", "res0.c2", "dense1", "dense2", "out"):
        m1.weights[name] = m2.weights[name]
        m1.norms[name] = m2.norms[name]

    x = np.random.default_rng(4).integers(0, 2, size=(5, 4, 16, 1))
    x = x.astype(np.float32)
    l2, _ = m2.forward(x, training=False)
    l1, _ = m1.forward(x, training=False)
    assert np.array_equal(l1, l2)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_backward_matches_finite_differences(activation):
    """Model.backward as a whole, in float64 at the fp stage, against
    central differences of a projected loss: the skip path (res0.c2),
    dense1's channels-last row order, a batchnorm and a bias."""
    m = build_model(small_cfg(hidden_activation=activation), seed=5)
    for name, w in m.weights.items():
        m.weights[name] = w.astype(np.float64)
    r = np.random.default_rng(6)
    for name, norm in m.norms.items():
        if isinstance(norm, nn.BnState):
            m.norms[name] = dataclasses.replace(norm, **{
                key: getattr(norm, key).astype(np.float64)
                for key in ("gamma", "beta", "running_mean", "running_var")})
            m.norms[name].gamma[:] = r.uniform(0.5, 1.5, norm.gamma.shape)
        else:
            m.norms[name] = r.normal(0.0, 0.1, norm.shape)
    x = r.integers(0, 2, size=(6, 4, 16, 1)).astype(np.float64)
    proj = r.normal(size=(6, 2))

    def loss():
        return float((m.forward(x, training=True)[0] * proj).sum())

    grads = m.backward(proj, m.forward(x, training=True)[1])
    params = m.param_dict()
    eps = 1e-6
    for key in ("conv0.w", "res0.c1.w", "res0.c2.w", "dense1.w",
                "res0.bn2.gamma", "out.b"):
        p, g = params[key], grads[key]
        assert g.shape == p.shape and g.dtype == np.float64, key
        for flat in r.choice(p.size, size=min(6, p.size), replace=False):
            i = np.unravel_index(flat, p.shape)
            old = p[i]
            p[i] = old + eps
            hi = loss()
            p[i] = old - eps
            lo = loss()
            p[i] = old
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-6 * np.abs(g).max(), (key, i)


# ------------------------------------------------------------- stage logic

def test_set_stage_initializes_deltas():
    m = build_model(small_cfg(), seed=0)
    assert m.deltas == {}
    m.set_stage("weights")
    names = m.quant_layer_names()
    assert set(m.deltas) == set(names)
    for name in names:
        w = m.weights[name]
        assert float(m.deltas[name]) == pytest.approx(
            2.0 * float(np.mean(np.abs(w))))
    with pytest.raises(ValueError):
        m.set_stage("nope")


def test_project_deltas_clamps():
    m = build_model(small_cfg(), seed=0)
    m.set_stage("weights")
    m.deltas["conv0"][()] = -3.0
    m.project_deltas()
    assert float(m.deltas["conv0"]) == 1e-8


# --------------------------------------------------------- evaluate a rule

def test_evaluate_all_half_scorer_and_errors():
    # A symmetric output layer scores exactly 0.5: random under the default
    # threshold 0.505, real under 0.5 (the boundary is inclusive).
    ds = gen_dataset(n_per_class=16, rounds=3, group_size=1, seed=0)
    for threshold, confusion in ((0.505, {"tp": 0, "tn": 16, "fp": 0,
                                          "fn": 16}),
                                 (0.5, {"tp": 16, "tn": 0, "fp": 16,
                                        "fn": 0})):
        m = build_model(small_cfg(decision_threshold=threshold), seed=0)
        m.weights["out"][:] = 0.0
        m.norms["out"][:] = 0.0
        assert np.all(m.scores(ds.bits) == 0.5)
        assert evaluate(m, ds) == (0.5, confusion)  # the set is balanced

    empty = gen_dataset(n_per_class=2, rounds=3, group_size=1, seed=0)
    empty.bits = empty.bits[:0]
    empty.labels = empty.labels[:0]
    with pytest.raises(ValueError):
        evaluate(m, empty)
    wrong_g = gen_dataset(n_per_class=8, rounds=3, group_size=8, seed=0)
    with pytest.raises(ValueError):
        evaluate(m, wrong_g)


# ------------------------------------------------------------ training loop

def test_train_zero_epochs_returns_unchanged():
    ds = gen_dataset(n_per_class=32, rounds=3, group_size=1, seed=0)
    m = build_model(small_cfg(), seed=0)
    before = m.weights["conv0"].copy()
    out, report = train(m, ds, ds, TrainHyper(epochs=0))
    assert out is m
    assert report.entries == []
    assert np.array_equal(m.weights["conv0"], before)


def test_train_runs_and_reports():
    tr = gen_dataset(n_per_class=128, rounds=3, group_size=1, seed=0)
    va = gen_dataset(n_per_class=64, rounds=3, group_size=1, seed=1)
    m = build_model(small_cfg(), seed=0)
    out, report = train(m, tr, va, TrainHyper(epochs=3, batch_size=64, seed=0))
    assert len(report.entries) == 3
    for e in report.entries:
        assert 0.0 <= e["train_acc"] <= 1.0
        assert 0.0 <= e["val_acc"] <= 1.0
        assert e["stage"] == "fp"
    assert report.best_val_acc == max(e["val_acc"] for e in report.entries)


def test_train_is_deterministic():
    tr = gen_dataset(n_per_class=64, rounds=3, group_size=1, seed=0)
    va = gen_dataset(n_per_class=32, rounds=3, group_size=1, seed=1)
    reports = []
    for _ in range(2):
        m = build_model(small_cfg(), seed=5)
        _, rep = train(m, tr, va, TrainHyper(epochs=2, batch_size=32, seed=9))
        reports.append([(e["loss"], e["train_acc"], e["val_acc"])
                        for e in rep.entries])
    assert reports[0] == reports[1]


def test_train_validates_inputs():
    tr = gen_dataset(n_per_class=16, rounds=3, group_size=1, seed=0)
    other_g = gen_dataset(n_per_class=16, rounds=3, group_size=8, seed=0)
    other_r = gen_dataset(n_per_class=16, rounds=4, group_size=1, seed=0)
    m = build_model(small_cfg(), seed=0)
    with pytest.raises(ValueError):
        train(m, other_g, other_g, TrainHyper(epochs=1))
    with pytest.raises(ValueError):
        train(m, tr, other_r, TrainHyper(epochs=1))
    with pytest.raises(ValueError):
        train(m, tr, tr, TrainHyper(epochs=1, batch_size=1))


def test_train_stops_early_without_improvement():
    """With lr 0 and a zeroed output layer every epoch scores 0.5 on the
    balanced validation set, so patience 0 stops after epoch 1, keeping
    epoch 0."""
    tr = gen_dataset(n_per_class=32, rounds=3, group_size=1, seed=0)
    va = gen_dataset(n_per_class=16, rounds=3, group_size=1, seed=1)
    m = build_model(small_cfg(), seed=0)
    m.weights["out"][:] = 0.0
    m.norms["out"][:] = 0.0
    _, rep = train(m, tr, va, TrainHyper(epochs=5, batch_size=32, lr=0.0,
                                         patience=0))
    assert [e["epoch"] for e in rep.entries] == [0, 1]
    assert rep.best_epoch == 0 and rep.best_val_acc == 0.5


def test_train_loss_decreases_fp():
    tr = gen_dataset(n_per_class=512, rounds=3, group_size=1, seed=0)
    va = gen_dataset(n_per_class=128, rounds=3, group_size=1, seed=1)
    m = build_model(small_cfg(channels=8, dense_sizes=(16, 16)), seed=0)
    _, rep = train(m, tr, va, TrainHyper(epochs=5, batch_size=128, seed=0))
    losses = [e["loss"] for e in rep.entries]
    assert losses[-1] < losses[0]


def test_staged_schedule_transitions():
    tr = gen_dataset(n_per_class=64, rounds=3, group_size=1, seed=0)
    va = gen_dataset(n_per_class=32, rounds=3, group_size=1, seed=1)
    m = build_model(small_cfg(), seed=0)
    sched = QuantSchedule(warmup_epochs=1, weight_quant_epochs=1,
                          act_quant_epochs=1)
    out, rep = train(m, tr, va, TrainHyper(batch_size=32, seed=0), quant=sched)
    assert [e["stage"] for e in rep.entries] == ["fp", "weights", "full"]
    assert out.stage == "full"
    assert set(out.deltas) == set(out.quant_layer_names())
    assert all(float(d) > 0 for d in out.deltas.values())


# --------------------------------------------------- exact forward (oracle)

def ref_exact_forward(m: Model, bits, planes=None):
    """Definition-level rational evaluation of one sample, python loops.
    A planes dict, if given, receives each layer's bits and the output
    sums' difference, named as exact_bit_forward names them."""
    planes = {} if planes is None else planes
    F = Fraction
    g = m.cfg.group_size

    def codes_of(name):
        w = np.asarray(m.weights[name], dtype=np.float64)
        d = m.delta_of(name)
        v = w / d
        return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), -1, 1).astype(int)

    def bn_bit(bn, c, acc, delta):
        pre = F(float(bn.gamma[c])) * (F(delta) * acc - F(float(bn.running_mean[c])))
        pre = pre / F(nn.bn_sigma(bn.running_var[c], bn.eps))
        return 1 if pre + F(float(bn.beta[c])) > 0 else 0

    def conv(x, k):  # x [C,16,g] ints, k [O,C,kh,kw] ints, zero padded
        o, ci, kh, kw = k.shape
        out = np.zeros((o, 16, g), dtype=int)
        for oc in range(o):
            for h in range(16):
                for w in range(g):
                    acc = 0
                    for cc in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                hh = h + u - kh // 2
                                ww = w + v - kw // 2
                                if 0 <= hh < 16 and 0 <= ww < g:
                                    acc += int(k[oc, cc, u, v]) * int(x[cc, hh, ww])
                    out[oc, h, w] = acc
        return out

    x = bits.astype(int)
    s = conv(x, codes_of("conv0"))
    d0 = m.delta_of("conv0")
    h = np.array([[[bn_bit(m.norms["conv0"], c, int(s[c, i, j]), d0)
                    for j in range(g)] for i in range(16)]
                  for c in range(s.shape[0])])
    planes["conv0"] = h
    for bi in range(m.cfg.residual_blocks):
        h0 = h
        s1 = conv(h0, codes_of(f"res{bi}.c1"))
        d1 = m.delta_of(f"res{bi}.c1")
        a1 = np.array([[[bn_bit(m.norms[f"res{bi}.c1"], c, int(s1[c, i, j]), d1)
                         for j in range(g)] for i in range(16)]
                       for c in range(s1.shape[0])])
        planes[f"res{bi}.c1"] = a1
        s2 = conv(a1, codes_of(f"res{bi}.c2")) + h0
        d2 = m.delta_of(f"res{bi}.c2")
        h = np.array([[[bn_bit(m.norms[f"res{bi}.c2"], c, int(s2[c, i, j]), d2)
                        for j in range(g)] for i in range(16)]
                      for c in range(s2.shape[0])])
        planes[f"res{bi}.c2"] = h

    flat = h.reshape(-1)

    def dense_bits(xv, codes, bias, delta):
        outs = []
        for c in range(codes.shape[1]):
            acc = int(np.dot(xv, codes[:, c]))
            outs.append(1 if F(delta) * acc + F(float(bias[c])) > 0 else 0)
        return np.array(outs, dtype=int)

    f1 = dense_bits(flat, codes_of("dense1"), m.norms["dense1"],
                    m.delta_of("dense1"))
    f2 = dense_bits(f1, codes_of("dense2"), m.norms["dense2"],
                    m.delta_of("dense2"))
    oc = codes_of("out")
    s0 = int(np.dot(f2, oc[:, 0]))
    s1 = int(np.dot(f2, oc[:, 1]))
    planes.update({"dense1": f1, "dense2": f2, "out.sum_diff": s1 - s0})
    do = m.delta_of("out")
    out_b = m.norms["out"]
    diff = F(do) * (s1 - s0) + F(float(out_b[1])) - F(float(out_b[0]))
    t = m.cfg.decision_threshold
    return 1 if diff >= F(math.log(t / (1.0 - t))) else 0


def randomized_quantized_model(seed, cfg=None):
    r = np.random.default_rng(seed)
    m = build_model(cfg or small_cfg(), seed=seed)
    for bn in [m.norms["conv0"]] + [m.norms[f"res{i}.c{k}"]
                                    for i in range(m.cfg.residual_blocks)
                                    for k in (1, 2)]:
        bn.gamma[:] = r.normal(size=bn.gamma.shape).astype(np.float32)
        bn.beta[:] = r.normal(scale=0.5, size=bn.beta.shape).astype(np.float32)
        bn.running_mean[:] = r.normal(size=bn.running_mean.shape).astype(np.float32)
        bn.running_var[:] = (0.05 + np.abs(r.normal(size=bn.running_var.shape))
                             ).astype(np.float32)
    for b in (m.norms["dense1"], m.norms["dense2"], m.norms["out"]):
        b[:] = r.normal(scale=0.3, size=b.shape).astype(np.float32)
    m.set_stage("full")
    for name in m.deltas:
        m.deltas[name][()] = float(0.05 + r.random())
    return m


def _ref_conv(x, k):
    """'same' conv of channels-first maps x [N, C, H, W] with a kernel
    k [O, C, kh, kw], zero padded, in float64: one product per tap."""
    n, _, hh, ww = x.shape
    _, _, kh, kw = k.shape
    xp = np.zeros((n, x.shape[1], hh + kh - 1, ww + kw - 1))
    xp[:, :, kh // 2:kh // 2 + hh, kw // 2:kw // 2 + ww] = x
    out = 0.0
    for u, v in itertools.product(range(kh), range(kw)):
        out = out + np.einsum("nchw,oc->nohw", xp[:, :, u:u + hh, v:v + ww],
                              np.asarray(k[:, :, u, v], np.float64))
    return out


def ref_float_forward(m: Model, x):
    """Unfused float64 forward of m in its stage, from the layer table:
    (logits [N, 2], {name: hidden output, maps [N, C, 16, g]}, {name: sums
    before normalization}). A quantized stage's weights are its ternary
    codes times delta, the skip joins the sums scaled by lam (delta in the
    full stage, else 1) before normalization, a batchnorm is
    gamma * (y - mean) / sqrt(var + eps) + beta."""
    h, outs, pre = np.asarray(x, np.float64), {}, {}
    specs = layer_specs(m.cfg)
    for spec in specs:
        w = np.asarray(m.weights[spec.name], np.float64)
        if m.stage != "fp":
            d = m.delta_of(spec.name)
            w = np.clip(np.sign(w / d) * np.floor(np.abs(w / d) + 0.5),
                        -1, 1) * d
        if spec.kind == "conv":
            y = _ref_conv(h, w)
        else:  # dense rows are in [C, H, W] flattening order
            y = h.reshape(len(h), -1) @ w
        if spec.skip_from is not None:
            lam = m.delta_of(spec.name) if m.stage == "full" else 1.0
            y = y + lam * outs[spec.skip_from]
        pre[spec.name] = y
        norm = m.norms[spec.name]
        if spec.norm == "bn":
            col = (slice(None), None, None)
            p = [np.asarray(v, np.float64)[col] for v in (
                norm.gamma, norm.beta, norm.running_mean, norm.running_var)]
            y = p[0] * (y - p[2]) / np.sqrt(p[3] + norm.eps) + p[1]
        else:
            y = y + np.asarray(norm, np.float64)
        if spec is specs[-1]:
            return y, outs, pre
        if m.stage == "full":
            y = (y > 0).astype(np.float64)
        elif m.cfg.hidden_activation == "sigmoid":
            y = 1.0 / (1.0 + np.exp(-y))
        else:
            y = np.maximum(y, 0.0)
        outs[spec.name] = h = y


def randomized_firing_model(seed, cfg=None, antisymmetric=False):
    """randomized_quantized_model with each step size, batchnorm mean and
    dense bias (the output's b1 - b0) drawn again, its output columns first
    made negations of each other when antisymmetric. A step size is
    0.8-1.6 times its layer's mean |w|, so that 52-75% of Gaussian weights
    get a nonzero code. Layer by layer, every channel's switch point then goes in its
    reachable range, half a step above a sum it takes on 256 random inputs
    (a random quantile between 0.25 and 0.75; below it, if that is the
    largest): its channels fire on some inputs and not on others, and
    float rounding cannot flip a bit."""
    m = randomized_quantized_model(seed, cfg)
    if antisymmetric:
        m.weights["out"][:, 1] = -m.weights["out"][:, 0]
    r = np.random.default_rng(seed + 1000)
    for name, d in m.deltas.items():
        d[()] = float(np.mean(np.abs(m.weights[name]))) * r.uniform(0.8, 1.6)
    x = r.integers(0, 2, size=(256, 4, 16, m.cfg.group_size))
    t = m.cfg.decision_threshold
    specs = layer_specs(m.cfg)
    for spec in specs:
        delta = m.delta_of(spec.name)
        sums = np.rint(ref_float_forward(m, x)[2][spec.name] / delta)
        sums = np.moveaxis(sums, 1, -1).reshape(-1, sums.shape[1])
        if spec is specs[-1]:
            sums = sums[:, 1:] - sums[:, :1]
        switch = []
        for col in sums.T:  # below the largest sum, so that both sides occur
            k = np.quantile(col, r.uniform(0.25, 0.75), method="lower")
            switch.append(k - 0.5 if k == col.max() else k + 0.5)
        switch = np.array(switch)
        norm = m.norms[spec.name]
        if spec is specs[-1]:
            norm[:] = [0.0, math.log(t / (1.0 - t)) - delta * switch[0]]
        elif spec.norm == "bias":
            norm[:] = -delta * switch
        else:  # gamma * (delta * S - mean) / sigma + beta is 0 at the switch
            sigma = np.sqrt(norm.running_var.astype(np.float64) + norm.eps)
            norm.running_mean[:] = (delta * switch
                                    + norm.beta * sigma / norm.gamma)
    return m


@pytest.mark.parametrize("cfg", [small_cfg(), small_cfg(group_size=2),
                                 small_cfg(residual_blocks=2)])
def test_firing_model_fires(cfg):
    """On fresh random inputs, most non-output channels of every layer of
    randomized_firing_model take both values, and both labels occur."""
    for seed in range(3):
        m = randomized_firing_model(seed, cfg)
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(256, 4, 16, cfg.group_size), dtype=np.uint8)
        labels, _, planes = exact_bit_forward(m, bits, return_planes=True)
        assert set(labels.tolist()) == {0, 1}, seed
        for name, plane in planes:
            if name.startswith("out"):
                continue
            per_channel = np.moveaxis(plane, 1, 0).reshape(plane.shape[1], -1)
            both = ((per_channel.min(axis=1) == 0)
                    & (per_channel.max(axis=1) == 1))
            assert both.mean() > 0.5, (seed, name, both)


def test_exact_forward_matches_definition_oracle():
    """exact_bit_forward's labels and every plane against the definitions,
    at g=1, at g=2 and with two residual blocks, on a saturated and on a
    firing random model: the one check of run_layers that does not go
    through it."""
    for cfg, make in itertools.product(
            (small_cfg(), small_cfg(group_size=2),
             small_cfg(residual_blocks=2)),
            (randomized_quantized_model, randomized_firing_model)):
        m = make(21, cfg=cfg)
        r = np.random.default_rng(2)
        bits = r.integers(0, 2, size=(40, 4, 16, cfg.group_size)
                          ).astype(np.uint8)
        labels, scores, planes = exact_bit_forward(m, bits,
                                                   return_planes=True)
        assert np.all((scores >= 0) & (scores <= 1))
        for i in range(len(bits)):
            want = {}
            assert labels[i] == ref_exact_forward(m, bits[i], want), (cfg, i)
            want["out"] = labels[i:i + 1]
            assert {name for name, _ in planes} == set(want)
            for name, plane in planes:
                assert np.array_equal(plane[i], want[name]), (cfg, i, name)


@pytest.mark.parametrize("route", ["float", "exact", "program"])
def test_empty_batch_gives_empty_outputs(route):
    """0 samples give labels, scores and planes of 0 rows, each of the
    dtype and trailing shape that one sample gets."""
    m = randomized_quantized_model(3, cfg=small_cfg(group_size=2))
    prog = lowering.lower_model(m)

    def run(bits):
        if route == "float":
            return [("scores", m.scores(bits))]
        if route == "exact":
            labels, scores, planes = exact_bit_forward(m, bits,
                                                       return_planes=True)
            return [("labels", labels), ("scores", scores)] + planes
        labels, planes = lowering.run_program(prog, bits, return_planes=True)
        return [("labels", labels)] + planes

    one = run(np.ones((1, 4, 16, 2), dtype=np.uint8))
    empty = run(np.ones((0, 4, 16, 2), dtype=np.uint8))
    assert [name for name, _ in empty] == [name for name, _ in one]
    for (name, got), (_, want) in zip(empty, one):
        assert got.dtype == want.dtype, name
        assert got.shape == (0,) + want.shape[1:], name


def without_tables(layers):
    """Copies of ExactLayers that run_layers runs through its GEMMs."""
    return [dataclasses.replace(el, bit_table=None, sum_tables=None)
            for el in layers]


@pytest.mark.parametrize("cfg", [small_cfg(), small_cfg(group_size=2),
                                 small_cfg(group_size=8),
                                 small_cfg(residual_blocks=2)],
                         ids=["g1", "g2", "g8", "two_blocks"])
@pytest.mark.parametrize("make", [randomized_quantized_model,
                                  randomized_firing_model])
def test_table_route_equals_gemm_route(cfg, make):
    """The table route (layer 0 by symbol, layer 1 by tap-group gathers) of
    a model's and of its program's layers gives the labels, every plane and
    S1 - S0 that the same layers give through the GEMMs, on 0, 1 and three
    blocks of samples."""
    m = make(4, cfg)
    sides = {"model": exact_layers(m),
             "program": lowering._compiled_layers(lowering.lower_model(m))}
    g = cfg.group_size
    n = 2 * model_module.block_samples(g) + 7
    bits = np.random.default_rng(4).integers(0, 2, size=(n, 4, 16, g),
                                             dtype=np.uint8)
    for side, layers in sides.items():
        assert layers[0].bit_table is not None, side
        assert layers[1].sum_tables is not None, side
        assert all(el.bit_table is None and el.sum_tables is None
                   for el in layers[2:]), side
        for k in (0, 1, n):
            got = run_layers(layers, bits[:k], return_planes=True)
            want = run_layers(without_tables(layers), bits[:k],
                              return_planes=True)
            assert np.array_equal(got[0], want[0]), (side, k)
            assert got[1].keys() == want[1].keys()
            for name in want[1]:
                assert np.array_equal(got[1][name], want[1][name]), (
                    side, k, name)
            assert (got[2] is None) == (want[2] is None)
            if want[2] is not None:
                assert np.array_equal(got[2], want[2]), (side, k)
    # conv0's XOR is in its table: some channel of it has first set
    assert sides["model"][0].first.any()


def test_exact_forward_guards():
    m = build_model(small_cfg(), seed=0)
    bits = np.zeros((2, 4, 16, 1), dtype=np.uint8)
    with pytest.raises(ValueError):
        exact_bit_forward(m, bits)  # still fp stage
    m.set_stage("full")
    with pytest.raises(ValueError):
        exact_bit_forward(m, np.full((2, 4, 16, 1), 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning before the error
        with pytest.raises(ValueError, match="binary"):
            exact_bit_forward(m, np.full((2, 4, 16, 1), np.nan))


F = Fraction

_floats = st.floats(-1e3, 1e3, allow_nan=False)
_deltas = st.one_of(st.floats(1e-300, 1e-6), st.floats(1e-6, 1e3))


@st.composite
def _sum_column(draw, n, lo):
    """n integer sums from [lo, lo + width]; width 0 makes them constant."""
    width = draw(st.sampled_from((0, 1, 3, 40)))
    return draw(st.lists(st.integers(lo, lo + width), min_size=n, max_size=n))


@st.composite
def _indicator_case(draw):
    """(delta, bn, bias, sums [N, C]). Most channels' batchnorm and bias
    predicates switch inside the range of their sums, also at tiny delta."""
    delta = draw(_deltas)
    n = draw(st.integers(1, 12))
    rows, bias, cols = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        col = draw(_sum_column(n, draw(st.integers(-300, 300))))
        cols.append(col)
        gamma = draw(st.one_of(st.just(0.0), _floats))
        var = draw(st.floats(0.0, 1e3))
        beta, mean, b = draw(_floats), draw(_floats), draw(_floats)
        if draw(st.booleans()):
            # switch at S = at: gamma*(delta*at - mean) + beta*sigma = 0
            at = draw(st.floats(min(col) - 1, max(col) + 1))
            b0 = draw(_floats)
            beta, b = delta * b0, -delta * at
            if gamma != 0:
                mean = delta * (at + b0 * math.sqrt(var + 1e-5) / gamma)
                mean = mean if math.isfinite(mean) else 0.0
        rows.append((gamma, beta, mean, var))
        bias.append(b)
    gamma, beta, mean, var = np.array(rows, dtype=np.float64).T
    bn = nn.BnState(gamma=gamma, beta=beta, running_mean=mean,
                    running_var=var)
    return delta, bn, np.array(bias), np.array(cols, dtype=np.float32).T


def _observed_range_bits(pred, s):
    """Bits of integer sums s [N, C] from pred's switch points over each
    channel's observed range."""
    t, first = pred.switch_points(s.min(axis=0), s.max(axis=0))
    return ((s > t) ^ first).view(np.uint8)


@settings(max_examples=300, deadline=None)
@given(case=_indicator_case())
def test_switch_point_bits_equal_lut_oracle(case):
    delta, bn, bias, s = case
    dlt = F(delta)
    sig = [F(nn.bn_sigma(v, bn.eps)) for v in bn.running_var]

    def bn_pred(c, x):
        return (F(bn.gamma[c]) * (dlt * x - F(bn.running_mean[c]))
                + F(bn.beta[c]) * sig[c] > 0)

    assert np.array_equal(_observed_range_bits(_bn_predicate(bn, delta), s),
                          channel_lut_bits(s, bn_pred))

    def bias_pred(c, x):
        return dlt * x + F(bias[c]) > 0

    assert np.array_equal(
        _observed_range_bits(_bias_predicate(bias, delta), s),
        channel_lut_bits(s, bias_pred))


@st.composite
def _affine_channel(draw):
    """(slope, offset) as Fractions: a zero slope, a switch exactly on an
    integer in or near the range, a switch far outside it, or any offset."""
    slope = F(draw(st.one_of(st.just(0.0), _floats, st.floats(1e-300, 1e-6),
                             st.floats(-1e-6, -1e-300))))
    kind = draw(st.sampled_from(("on", "far", "any")))
    if kind == "on":
        return slope, -slope * draw(st.integers(-60, 60))
    if kind == "far":
        return slope, -slope * draw(st.sampled_from((-1, 1))) * 10 ** draw(
            st.integers(3, 400))
    return slope, F(draw(_floats))


@settings(max_examples=300, deadline=None)
@given(channels=st.lists(_affine_channel(), min_size=1, max_size=4),
       inclusive=st.booleans(), data=st.data())
def test_switch_points_hold_over_the_reachable_range(channels, inclusive,
                                                     data):
    """Each channel's switch point gives the oracle's bit at every integer
    of its reachable range [lo, hi] with lo <= 0 <= hi, and lies in
    [lo - 1, hi]."""
    slope, offset = [a for a, _ in channels], [b for _, b in channels]
    lo = np.array([-data.draw(st.integers(0, 40)) for _ in channels])
    hi = np.array([data.draw(st.integers(0, 40)) for _ in channels])
    t, first = ExactPredicate(slope, offset, inclusive).switch_points(lo, hi)
    assert ((lo - 1 <= t) & (t <= hi)).all()
    # column c runs over every integer of [lo[c], hi[c]], padded with lo[c]
    width = int((hi - lo).max()) + 1
    s = np.minimum(lo + np.arange(width)[:, None], hi)

    def pred(c, x):
        v = slope[c] * x + offset[c]
        return v >= 0 if inclusive else v > 0

    assert np.array_equal(((s > t) ^ first).view(np.uint8),
                          channel_lut_bits(s, pred))


def test_sum_range_is_the_reachable_range():
    """[lo, hi] is exactly the range of each column's sum over every 0/1
    input and skip bit, and with diff, of the two columns' S1 - S0."""
    kmat = np.random.default_rng(0).integers(-1, 2, size=(7, 5)
                                             ).astype(np.float32)
    x = np.array(list(itertools.product((0, 1), repeat=7)), np.float32)
    for skip in (0, 1):
        s = np.concatenate([x @ kmat + bit for bit in range(skip + 1)])
        lo, hi = sum_range(kmat, skip, diff=False)
        assert lo.tolist() == s.min(axis=0).tolist()
        assert hi.tolist() == s.max(axis=0).tolist()
    d = x @ (kmat[:, 1] - kmat[:, 0])
    assert [v.tolist() for v in sum_range(kmat[:, :2], 0, diff=True)] == [
        [d.min()], [d.max()]]


def test_exact_forward_needs_no_lowering_fold(monkeypatch):
    m = randomized_quantized_model(21, cfg=small_cfg(group_size=2))
    bits = np.random.default_rng(4).integers(0, 2, size=(30, 4, 16, 2),
                                             dtype=np.uint8)
    want_labels, want_scores, want_planes = exact_bit_forward(
        m, bits, return_planes=True)

    def refuse(*args, **kwargs):
        raise AssertionError("exact_bit_forward used the lowering's thresholds")

    for name in ("fold_batchnorm", "fold_bias", "fold_output_pair",
                 "_compare_theta", "lower_layer", "lower_model"):
        monkeypatch.setattr(lowering, name, refuse)
    labels, scores, planes = exact_bit_forward(m, bits, return_planes=True)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(scores, want_scores)
    for (name, plane), (_, want) in zip(planes, want_planes):
        assert np.array_equal(plane, want), name


def _adam_step(m):
    x = np.random.default_rng(8).integers(0, 2, size=(64, 4, 16, 1))
    logits, cache = m.forward(x.astype(np.float32), training=True)
    _, dlogits = nn.softmax_xent(logits, np.arange(64) % 2)
    nn.Adam(lr=0.1).step(m.param_dict(), m.backward(dlogits, cache))


def _scale_gamma(m):
    m.norms["conv0"].gamma *= -1.0


def _scale_delta(m):
    m.deltas["dense1"][()] *= 0.3


def _negate_weight(m):
    m.weights["res0.c1"][0] *= -1.0


def _negate_conv0_weight(m):
    m.weights["conv0"][0] *= -1.0


@pytest.mark.parametrize("edit", [_scale_gamma, _scale_delta, _negate_weight,
                                  _negate_conv0_weight, _adam_step])
def test_exact_forward_follows_in_place_edits(tmp_path, monkeypatch, edit):
    """The cached switch points, GEMM matrices and the table route's tables
    are rebuilt after an in-place edit, and give what a freshly loaded model
    gives; no rebuild reaches the lowering's folds."""
    for name in ("fold_batchnorm", "fold_bias", "fold_output_pair",
                 "_compare_theta"):
        monkeypatch.setattr(lowering, name, None)
    m = randomized_quantized_model(17)
    bits = np.random.default_rng(6).integers(0, 2, size=(200, 4, 16, 1),
                                             dtype=np.uint8)
    _, _, before = exact_bit_forward(m, bits, return_planes=True)
    edit(m)
    labels, scores, planes = exact_bit_forward(m, bits, return_planes=True)
    save_model(m, tmp_path / "m.ndwf")
    want_labels, want_scores, want = exact_bit_forward(
        load_model(tmp_path / "m.ndwf"), bits, return_planes=True)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(scores, want_scores)
    for (name, plane), (_, w) in zip(planes, want):
        assert np.array_equal(plane, w), name
    assert any(not np.array_equal(p, b) for (_, p), (_, b) in zip(planes,
                                                                   before))


def test_clone_shares_the_exact_cache_until_edited():
    """A clone shares the original's compiled layers rather than copying
    them; an in-place edit of the clone rebuilds the clone's own, and the
    original keeps its cache and its labels."""
    m = randomized_firing_model(17)
    bits = np.random.default_rng(6).integers(0, 2, size=(200, 4, 16, 1),
                                             dtype=np.uint8)
    want = exact_bit_forward(m, bits)[0]
    cache = m._exact
    twin = m.clone()
    assert twin._exact is cache
    assert twin.weights["res0.c1"] is not m.weights["res0.c1"]
    _negate_weight(twin)
    assert not np.array_equal(exact_bit_forward(twin, bits)[0], want)
    assert twin._exact is not cache
    assert np.array_equal(exact_bit_forward(m, bits)[0], want)
    assert m._exact is cache


def test_exact_forward_on_unchanged_model_builds_no_fraction(monkeypatch):
    m = randomized_quantized_model(12)
    bits = np.random.default_rng(3).integers(0, 2, size=(50, 4, 16, 1),
                                             dtype=np.uint8)
    want = exact_bit_forward(m, bits)

    def refuse(x):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(model_module, "_frac", refuse)
    got = exact_bit_forward(m, bits)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    m.norms["dense2"][0] += 1.0
    with pytest.raises(AssertionError, match="Fraction"):
        exact_bit_forward(m, bits)


def test_exact_forward_asserts_float32_exact_bound(monkeypatch):
    m = randomized_quantized_model(6)
    bits = np.zeros((3, 4, 16, 1), dtype=np.uint8)
    widest = 0
    for name in m.quant_layer_names():
        codes = extract_ternary(m.weights[name], m.delta_of(name)).codes
        rows = codes.reshape(len(codes), -1) if codes.ndim == 4 else codes.T
        widest = max(widest, int(np.count_nonzero(rows, axis=1).max())
                     + name.endswith(".c2"))
    monkeypatch.setattr(nn, "F32_EXACT_LIMIT", widest + 1)
    exact_bit_forward(m, bits)
    monkeypatch.setattr(nn, "F32_EXACT_LIMIT", widest)
    with pytest.raises(ValueError, match="float32"):
        exact_bit_forward(m, bits)


def test_evaluate_routes_full_stage_through_exact_path(monkeypatch):
    # The float route decides these sets as the exact route does, so it is
    # made to fail: a full-stage model must not reach it.
    def float_route(self, bits):
        raise AssertionError("a full-stage model took the float route")

    monkeypatch.setattr(Model, "scores", float_route)
    ds = gen_dataset(n_per_class=64, rounds=3, group_size=1, seed=3)
    for m in (randomized_quantized_model(33), randomized_firing_model(33)):
        acc, confusion = evaluate(m, ds)
        labels, _ = exact_bit_forward(m, ds.bits)
        expect = float(np.mean(labels == ds.labels))
        assert acc == expect
        assert sum(confusion.values()) == len(ds)
    assert set(labels.tolist()) == {0, 1}  # the firing model's


# ---------------------------------------------------------------- persistence

def test_save_load_roundtrip(tmp_path):
    m = randomized_quantized_model(5)
    path = tmp_path / "m.ndw"
    save_model(m, path)
    back = load_model(path)
    assert back.stage == "full"
    assert back.cfg == m.cfg
    assert set(back.deltas) == set(m.deltas)
    for k in m.deltas:
        assert float(back.deltas[k]) == float(m.deltas[k])
    bits = np.random.default_rng(0).integers(0, 2, size=(16, 4, 16, 1)).astype(np.uint8)
    la, sa = exact_bit_forward(m, bits)
    lb, sb = exact_bit_forward(back, bits)
    assert np.array_equal(la, lb)
    assert np.array_equal(sa, sb)


def test_scores_in_blocks_match_one_forward(monkeypatch):
    m = build_model(small_cfg(), seed=3)
    x = np.random.default_rng(3).integers(0, 2, size=(150, 4, 16, 1)
                                          ).astype(np.float32)
    logits, _ = m.forward(x, training=False)
    monkeypatch.setattr(model_module, "SCORE_ROWS", 16)  # 64-sample blocks
    got = m.scores(x)
    assert got.shape == (150,)
    assert np.allclose(got, nn.softmax(logits)[:, 1], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("stage", ["fp", "weights", "full"])
@pytest.mark.parametrize("group_size", [1, 2])
def test_blocked_scores_equal_one_block_scores(monkeypatch, stage,
                                               group_size):
    m = randomized_quantized_model(5, cfg=small_cfg(group_size=group_size))
    m.set_stage(stage)
    x = np.random.default_rng(5).integers(0, 2, size=(150, 4, 16, group_size),
                                          dtype=np.uint8)
    monkeypatch.setattr(model_module, "SCORE_ROWS", 1 << 30)
    whole = m.scores(x)
    monkeypatch.setattr(model_module, "SCORE_ROWS", 16)  # 64-sample blocks
    assert np.array_equal(m.scores(x), whole)


@pytest.mark.parametrize("stage", ["fp", "full"])
def test_inference_forward_builds_no_activation_masks(stage):
    """Only training keeps the relu and binarize backward masks."""
    m = randomized_quantized_model(6)
    m.set_stage(stage)
    x = np.random.default_rng(6).integers(0, 2, size=(32, 4, 16, 1)
                                          ).astype(np.float32)
    _, caches = m.forward(x, training=False)
    assert all(c_act is None for _, _, c_act, *_ in caches)
    _, train_caches = m.forward(x, training=True)
    assert all(c_act is not None for _, _, c_act, *_ in train_caches[:-1])


@pytest.mark.parametrize("stage", ["fp", "weights", "full"])
@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("shape", [dict(), dict(group_size=2),
                                   dict(residual_blocks=2)])
def test_folded_float_route_matches_unfused_reference(monkeypatch, stage,
                                                      activation, shape):
    """The float route folds each inference batchnorm into the layer before
    it; ref_float_forward does not. In the fp and weights stages the scores
    of Model.scores and forward agree with it within rtol 1e-5; in the full
    stage every hidden bit and every label is equal."""
    cfg = small_cfg(hidden_activation=activation, **shape)
    m = randomized_firing_model(8, cfg)
    m.set_stage(stage)
    x = np.random.default_rng(8).integers(0, 2, size=(256, 4, 16,
                                                      cfg.group_size),
                                          dtype=np.uint8)
    ref_logits, ref_hidden, _ = ref_float_forward(m, x)
    want = 1.0 / (1.0 + np.exp(ref_logits[:, 0] - ref_logits[:, 1]))
    hidden = []
    act = Model._act

    def recording_act(self, y, training):
        out = act(self, y, training)
        hidden.append(np.array(out[0]))
        return out

    monkeypatch.setattr(Model, "_act", recording_act)
    logits, _ = m.forward(x.astype(np.float32), training=False)
    monkeypatch.undo()
    got = {"forward": nn.softmax(logits)[:, 1], "scores": m.scores(x)}
    if stage != "full":
        for route, p in got.items():
            np.testing.assert_allclose(p, want, rtol=1e-5, err_msg=route)
        return
    assert len(hidden) == len(ref_hidden)
    for (name, ref), h in zip(ref_hidden.items(), hidden):
        assert np.array_equal(np.moveaxis(h, -1, 1) if h.ndim == 4 else h,
                              ref), name
    t = cfg.decision_threshold
    labels = ref_logits[:, 1] - ref_logits[:, 0] >= math.log(t / (1.0 - t))
    assert 0 < labels.sum() < len(labels)
    for route, p in got.items():
        assert np.array_equal(p >= t, labels), route


def test_scores_memory_does_not_grow_with_blocks(monkeypatch):
    tracemalloc = pytest.importorskip("tracemalloc")
    m = build_model(small_cfg(), seed=2)
    monkeypatch.setattr(model_module, "SCORE_ROWS", 16)  # 64-sample blocks
    x = np.random.default_rng(2).integers(0, 2, size=(16 * 64, 4, 16, 1),
                                          dtype=np.uint8)
    m.scores(x[:64])
    peaks = []
    for n in (64, 16 * 64):
        tracemalloc.start()
        try:
            m.scores(x[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_save_load_fp_stage(tmp_path):
    m = build_model(small_cfg(), seed=11)
    path = tmp_path / "fp.ndw"
    save_model(m, path)
    back = load_model(path)
    assert back.stage == "fp" and back.deltas == {}
    x = np.random.default_rng(1).integers(0, 2, size=(4, 4, 16, 1)).astype(np.float32)
    assert np.array_equal(m.scores(x), back.scores(x))
