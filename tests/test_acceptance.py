"""Acceptance gate: one test per shipping criterion.

Each test is summarized as a single PASS/FAIL line by conftest.py at the
end of the run. Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ndlite import nn, speck
from ndlite.dataset import gen_dataset
from ndlite.lowering import (fold_output_pair, lower_layer, lower_model,
                             program_expressions, run_program)
from ndlite.model import (ModelConfig, TrainHyper, build_model, evaluate,
                          exact_bit_forward, train)
from ndlite.opcount import count_model, op_ratio
from ndlite.quant import QuantSchedule, quantize_weights
from test_lowering import (antisymmetrize_output, apply_channel,
                           bn_predicate, identity_bn, make_bn,
                           ternary_from_codes)
from test_model import randomized_quantized_model, small_cfg
from test_nn import fd_grad, rel_err
from test_opcount import table4_fixture_program

F = Fraction


# 1. cipher correctness on the published vector, exact and under a millisecond

def test_criterion_1_speck_test_vector():
    key = (0x1918, 0x1110, 0x0908, 0x0100)
    plaintext = (0x6574, 0x694C)
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        ct = speck.encrypt(plaintext, speck.key_schedule(key, 22))
        timings.append(time.perf_counter() - t0)
        assert ct == (0xA868, 0x42F2)
    assert min(timings) < 1e-3


# 2. dense op counts on the g=8 architecture, zero tolerance

def test_criterion_2_dense_operation_counts():
    total, rows = count_model(ModelConfig())
    assert (total.mults, total.adds) == (2_642_048, 2_629_630)
    expected = {"conv0": (16_384, 12_288),
                "residual": (2_359_296, 2_351_104),
                "head": (266_240, 266_112),
                "output": (128, 126)}
    by_component = {name: counts for name, counts in rows}
    for name, (mults, adds) in expected.items():
        got = by_component[name]
        assert (got.mults, got.adds) == (mults, adds), name


# 3. lightweight op counts on the fixture sparsity profile, exact + ratio

def test_criterion_3_lightweight_operation_counts():
    light, _ = count_model(table4_fixture_program(),
                           count_dead_indicators=True)
    assert (light.bools, light.adds, light.indicators) == \
        (367_221, 358_417, 8_833)
    assert light.mults == 0
    dense, _ = count_model(ModelConfig())
    assert abs(op_ratio(light, dense) - 0.139) < 0.001


# 4. conv0 Boolean extraction reproduces the four published expressions

def test_criterion_4_conv0_boolean_extraction():
    cfg = ModelConfig(group_size=1, channels=32, residual_blocks=1,
                      dense_sizes=(8, 8))
    m = build_model(cfg, seed=0)
    m.set_stage("full")
    identity_bn(m.norms["conv0"])
    delta = 0.5
    m.weights["conv0"][:] = 0.0
    pattern = {1: (-1, 0, 1, 0), 15: (1, 0, -1, 0),
               24: (0, 1, 0, -1), 25: (0, -1, 0, 1)}
    for ch, codes in pattern.items():
        for in_ch, code in enumerate(codes):
            m.weights["conv0"][ch, in_ch, 0, 0] = code * delta
    m.deltas["conv0"][()] = delta

    prog = lower_model(m)
    got = [(ci, formula) for name, ci, formula in program_expressions(prog)
           if name == "conv0"]
    assert got == [(1, "C_l' & ~C_l"), (15, "C_l & ~C_l'"),
                   (24, "C_r & ~C_r'"), (25, "C_r' & ~C_r")]


# 5. lowering exactness: 25 random models x 1e4 inputs, plus 2^9 sweeps

def test_criterion_5_lowering_exactness():
    t0 = time.time()
    cfgs = [small_cfg(),
            small_cfg(group_size=2, channels=4),
            small_cfg(channels=5, dense_sizes=(7, 6)),
            ModelConfig(group_size=1, channels=8, residual_blocks=2,
                        dense_sizes=(10, 9)),
            ModelConfig(group_size=4, channels=6, residual_blocks=1,
                        dense_sizes=(8, 8))]
    mismatches = 0
    for i in range(25):
        cfg = cfgs[i % len(cfgs)]
        m = randomized_quantized_model(i, cfg)
        if i % 2 == 0:
            antisymmetrize_output(m)      # exercise the folded decision too
        prog = lower_model(m)
        r = np.random.default_rng(5_000 + i)
        bits = r.integers(0, 2, size=(10_000, 4, 16, cfg.group_size))
        bits = bits.astype(np.uint8)
        program_labels = run_program(prog, bits)
        model_labels, _ = exact_bit_forward(m, bits)
        mismatches += int(np.sum(program_labels != model_labels))
    assert mismatches == 0

    assigns = np.array(list(itertools.product((0, 1), repeat=9)),
                       dtype=np.int64)
    for draw in range(25):
        r = np.random.default_rng(400 + draw)
        codes = r.integers(-1, 2, size=(1, 1, 3, 3))
        delta = 0.05 + r.random()
        bn = make_bn(r.normal(size=1), r.normal(scale=0.5, size=1),
                     r.normal(size=1), [0.05 + abs(r.normal())])
        cp = lower_layer(ternary_from_codes(codes, delta), bn=bn).channels[0]
        for s in assigns @ codes.reshape(-1):
            assert apply_channel(cp, int(s)) == \
                bn_predicate(bn, 0, delta, int(s))
    assert time.time() - t0 < 300


# 6. every backward pass agrees with central finite differences

def _cl(a):
    """Channels-last view [N, H, W, C] of a feature map drawn as [N, C, H, W]."""
    return a.transpose(0, 2, 3, 1)


def _conv_case(r, k):
    x = r.normal(size=(2, int(r.integers(2, 4)), 5, 3))
    w = r.normal(size=(int(r.integers(2, 4)), x.shape[1], k, k))
    b = r.normal(size=w.shape[0])
    _, cache = nn.conv2d(_cl(x), w, b)
    proj = r.normal(size=(x.shape[0], w.shape[0], x.shape[2], x.shape[3]))

    def loss():
        return float((nn.conv2d(_cl(x), w, b)[0] * _cl(proj)).sum())

    dx, dw, db = nn.conv2d_grad(_cl(proj), cache)
    return [(dx, _cl(fd_grad(loss, x))), (dw, fd_grad(loss, w)),
            (db, fd_grad(loss, b))]


def _dense_case(r):
    x = r.normal(size=(4, int(r.integers(3, 7))))
    w = r.normal(size=(x.shape[1], int(r.integers(2, 5))))
    b = r.normal(size=w.shape[1])
    _, cache = nn.dense(x, w, b)
    proj = r.normal(size=(x.shape[0], w.shape[1]))

    def loss():
        return float((nn.dense(x, w, b)[0] * proj).sum())

    dx, dw, db = nn.dense_grad(proj, cache)
    return [(dx, fd_grad(loss, x)), (dw, fd_grad(loss, w)),
            (db, fd_grad(loss, b))]


def _bn_case(r, four_d):
    c = int(r.integers(2, 5))
    shape = (4, c, 3, 2) if four_d else (6, c)
    layout = _cl if four_d else (lambda a: a)
    x = r.normal(size=shape)
    bn = nn.BnState.create(c)
    bn.gamma = r.normal(size=c)
    bn.beta = r.normal(size=c)
    _, cache = nn.batchnorm(layout(x), bn)
    proj = r.normal(size=shape)

    def loss():
        return float((nn.batchnorm(layout(x), bn)[0]
                      * layout(proj)).sum())

    dx, dgamma, dbeta = nn.batchnorm_grad(layout(proj), cache)
    return [(dx, layout(fd_grad(loss, x))), (dgamma, fd_grad(loss, bn.gamma)),
            (dbeta, fd_grad(loss, bn.beta))]


def _relu_case(r):
    x = r.normal(size=(5, 4))
    x += 0.2 * np.sign(x)                 # keep clear of the kink
    _, cache = nn.relu(x)
    proj = r.normal(size=x.shape)

    def loss():
        return float((nn.relu(x)[0] * proj).sum())

    return [(nn.relu_grad(proj, cache), fd_grad(loss, x))]


def _sigmoid_case(r):
    x = r.normal(size=(4, 5))
    _, cache = nn.sigmoid(x)
    proj = r.normal(size=x.shape)

    def loss():
        return float((nn.sigmoid(x)[0] * proj).sum())

    return [(nn.sigmoid_grad(proj, cache), fd_grad(loss, x))]


def _xent_case(r):
    logits = r.normal(size=(6, int(r.integers(2, 5))))
    labels = r.integers(0, logits.shape[1], size=6)
    _, dlogits = nn.softmax_xent(logits, labels)

    def loss():
        return float(nn.softmax_xent(logits, labels)[0])

    return [(dlogits, fd_grad(loss, logits))]


def test_criterion_6_gradient_finite_difference():
    cases = [lambda r: _conv_case(r, 3), lambda r: _conv_case(r, 1),
             _dense_case, lambda r: _bn_case(r, True),
             lambda r: _bn_case(r, False), _relu_case, _sigmoid_case,
             _xent_case]
    for trial in range(50):
        r = np.random.default_rng(trial)
        for analytic, numeric in cases[trial % len(cases)](r):
            assert rel_err(analytic, numeric) < 1e-3, f"trial {trial}"


# 7. desk-scale training substitutes for the full-scale published runs

@pytest.fixture(scope="module")
def round3_data():
    return (gen_dataset(20_000, 3, group_size=1, seed=101),
            gen_dataset(2_000, 3, group_size=1, seed=102))


def test_criterion_7a_fp_training_3_rounds(round3_data):
    t0 = time.time()
    train_set, val_set = round3_data
    m = build_model(ModelConfig(group_size=1), seed=0)
    m, _ = train(m, train_set, val_set,
                 hyper=TrainHyper(epochs=4, batch_size=512, lr=1e-3, seed=0))
    accuracy, _ = evaluate(m, val_set)
    assert accuracy > 0.90
    assert time.time() - t0 < 1800


def test_criterion_7b_fp_training_5_rounds():
    t0 = time.time()
    train_set = gen_dataset(200_000, 5, group_size=1, seed=201)
    val_set = gen_dataset(20_000, 5, group_size=1, seed=202)
    m = build_model(ModelConfig(group_size=1), seed=0)
    m, _ = train(m, train_set, val_set,
                 hyper=TrainHyper(epochs=2, batch_size=512, lr=1e-3, seed=0))
    accuracy, _ = evaluate(m, val_set)
    assert accuracy > 0.65
    assert time.time() - t0 < 1800


def test_criterion_7c_quantized_program_parity(round3_data):
    t0 = time.time()
    train_set, val_set = round3_data
    m = build_model(ModelConfig(group_size=1), seed=0)
    m, _ = train(m, train_set, val_set,
                 hyper=TrainHyper(batch_size=512, lr=1e-3, seed=0),
                 quant=QuantSchedule(2, 2, 4))
    assert m.stage == "full"
    model_accuracy, _ = evaluate(m, val_set)
    prog = lower_model(m)
    program_labels = run_program(prog, val_set.bits)
    program_accuracy = float(np.mean(program_labels == val_set.labels))
    assert program_accuracy == model_accuracy
    assert program_accuracy > 0.80
    assert time.time() - t0 < 1800


# 8. quantizer pointwise values and properties on a million weights

def test_criterion_8_quantizer_properties():
    r = np.random.default_rng(8)
    w = r.normal(scale=1.5, size=1_000_000)
    w[:1_000] = (np.arange(1_000) - 500) * 0.125     # exact half-step ties
    for delta in (0.25, 0.7, 1e-3):
        q = quantize_weights(w, delta)
        # pointwise against a scalar reference on a stratified subsample
        idx = np.r_[np.arange(2_000), r.integers(0, w.size, size=3_000)]
        for i in idx:
            v = w[i] / delta
            code = math.floor(abs(v) + 0.5)
            code = min(code, 1)
            if v < 0:
                code = -code
            assert q[i] == code * delta, i
        assert np.array_equal(quantize_weights(q, delta), q)   # idempotent
        assert np.all(np.abs(q) <= delta)                      # in range
        levels = np.unique(q / delta)
        assert set(levels.tolist()) <= {-1.0, 0.0, 1.0}        # ternary
        assert math.log2(len(levels)) <= math.log2(3)          # 1.58 bits


# 9. folded single-channel decision equals two-way softmax argmax

def test_criterion_9_output_fold_soundness():
    r = np.random.default_rng(9)
    mismatches = 0
    for _ in range(1_000):
        n_in = int(r.integers(4, 65))
        col = r.integers(-1, 2, size=n_in)
        codes = np.stack([col, -col], axis=1)
        delta = float(0.05 + r.random())
        bias = r.normal(scale=0.5, size=2)
        cp = fold_output_pair(ternary_from_codes(codes, delta), bias,
                              mode="argmax")
        assert cp is not None

        bits = r.integers(0, 2, size=(1_000, n_in))
        if cp.const is not None:
            folded = np.full(len(bits), cp.const, dtype=np.int64)
        else:
            s_p = bits[:, list(cp.p)].sum(axis=1) if cp.p else 0
            s_n = bits[:, list(cp.n)].sum(axis=1) if cp.n else 0
            folded = (((s_p - s_n) > cp.theta) ^ cp.flip).astype(np.int64)

        # exact-rational two-way argmax: z1 - z0 = 2*delta*s1 + (b1 - b0)
        s1 = bits @ codes[:, 1]
        gap_const = F(float(bias[1])) - F(float(bias[0]))
        lut = {int(s): int(2 * F(delta) * int(s) + gap_const > 0)
               for s in np.unique(s1)}
        softmax_argmax = np.array([lut[int(s)] for s in s1], dtype=np.int64)
        mismatches += int(np.sum(folded != softmax_argmax))
    assert mismatches == 0
