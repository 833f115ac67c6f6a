"""Lowering tests: exact threshold folding, program evaluation against the
rational model semantics, expression synthesis, mutation detection, and the
text-format round trip."""

import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndlite import lowering, nn
from ndlite import model as model_module
from ndlite.lowering import (BooleanProgram, ChannelProgram, LayerProgram,
                             VerifyReport, conv0_literal_names,
                             fold_batchnorm, fold_bias, fold_output_pair,
                             load_program, lower_layer, lower_model,
                             program_expressions, run_program, save_program,
                             synthesize_expression, verify_equivalence)
from ndlite.model import build_model, exact_bit_forward
from ndlite.opcount import count_model
from ndlite.quant import extract_ternary

from test_model import (_ref_conv, randomized_firing_model,
                        randomized_quantized_model, small_cfg)

F = Fraction


# ------------------------------------------------------------------ helpers

def make_bn(gamma, beta, mean, var, eps=1e-5):
    bn = nn.BnState.create(len(gamma), eps=eps)
    bn.gamma[:] = gamma
    bn.beta[:] = beta
    bn.running_mean[:] = mean
    bn.running_var[:] = var
    return bn


def identity_bn(bn):
    bn.gamma[:] = 1.0
    bn.beta[:] = 0.0
    bn.running_mean[:] = 0.0
    bn.running_var[:] = 1.0


def bn_predicate(bn, c, delta, s):
    """The exact normalized-preactivation sign the fold must reproduce."""
    sig = F(nn.bn_sigma(bn.running_var[c], bn.eps))
    pre = (F(float(bn.gamma[c])) * (F(float(delta)) * s - F(float(bn.running_mean[c])))
           + F(float(bn.beta[c])) * sig)
    return int(pre > 0)


def apply_channel(cp, s):
    if cp.const is not None:
        return cp.const
    return int((s > cp.theta) ^ cp.flip)


def set_channel(layer, c, **changes):
    """Edit channel c of a program layer: its arrays are rebuilt from the
    layer's channels with that one's fields changed."""
    channels = list(layer.channels)
    channels[c] = dataclasses.replace(channels[c], **changes)
    new = LayerProgram.from_channels(layer.name, layer.kind, layer.in_width,
                                     layer.kernel, channels)
    for name in ("entries", "offsets", "theta", "flip", "const"):
        setattr(layer, name, getattr(new, name))


def ternary_from_codes(codes, delta):
    w = codes.astype(np.float32) * np.float32(delta)
    return extract_ternary(w, delta)


def antisymmetrize_output(m):
    m.weights["out"][:, 1] = -m.weights["out"][:, 0]


def assert_same_planes(prog, m, bits):
    """run_program and exact_bit_forward give the same labels and the same
    value in every plane the program names: each layer's bits and, under a
    compare decision, S1 - S0."""
    labels, planes = run_program(prog, bits, return_planes=True)
    exact_labels, _, exact_planes = exact_bit_forward(m, bits,
                                                      return_planes=True)
    assert np.array_equal(labels, exact_labels)
    exact_by_name = dict(exact_planes)
    last = prog.layers[-1]
    assert [name for name, _ in planes] == [
        lp.name for lp in prog.layers[:-1]] + [
        last.name if last.decision == "folded" else last.name + ".sum_diff"]
    for name, plane in planes:
        assert np.array_equal(plane, exact_by_name[name]), name


# ------------------------------------------------------------------ folding

def test_fold_batchnorm_matches_predicate_everywhere():
    r = np.random.default_rng(0)
    n = 200
    bn = make_bn(r.normal(size=n), r.normal(scale=0.5, size=n),
                 r.normal(scale=2.0, size=n), 0.05 + np.abs(r.normal(size=n)))
    bn.gamma[0] = 0.0   # constant channels, both polarities
    bn.beta[0] = 0.7
    bn.gamma[1] = 0.0
    bn.beta[1] = -0.2
    delta = 0.37
    folds = fold_batchnorm(bn, delta)
    for c, fold in enumerate(folds):
        for s in range(-50, 51):
            want = bn_predicate(bn, c, delta, s)
            if fold[0] == "const":
                assert fold[1] == want, f"channel {c}, s={s}"
            else:
                _, theta, flip = fold
                assert int((s > theta) ^ flip) == want, f"channel {c}, s={s}"


def test_fold_batchnorm_integer_boundary():
    # mu / delta lands exactly on an integer; s == t must stay inactive for
    # gamma > 0 and active for gamma < 0.
    bn = make_bn([2.0, -2.0], [0.0, 0.0], [3.0, 3.0], [1.0, 1.0])
    folds = fold_batchnorm(bn, 1.0)
    assert folds[0] == ("ind", 3, False)
    assert folds[1] == ("ind", 2, True)
    assert apply_channel(ChannelProgram(p=(0,), n=(), theta=3), 3) == 0
    assert apply_channel(ChannelProgram(p=(0,), n=(), theta=2, flip=True), 3) == 0
    assert apply_channel(ChannelProgram(p=(0,), n=(), theta=2, flip=True), 2) == 1


def test_fold_bias_matches_predicate():
    r = np.random.default_rng(1)
    bias = np.concatenate([r.normal(scale=0.5, size=50), [0.0, -1.0, 1.0]])
    delta = 0.25
    folds = fold_bias(bias, delta)
    for c, (kind, theta, flip) in enumerate(folds):
        assert kind == "ind" and flip is False
        for s in range(-30, 31):
            want = int(F(float(delta)) * s + F(float(bias[c])) > 0)
            assert int(s > theta) == want, f"channel {c}, s={s}"


def test_single_channel_3x3_exhaustive_fold():
    # All 512 assignments of one 3x3 window, program bit vs exact predicate.
    r = np.random.default_rng(11)
    assigns = np.array(list(itertools.product((0, 1), repeat=9)), dtype=np.int64)
    for _ in range(20):
        codes = r.integers(-1, 2, size=(1, 1, 3, 3))
        if not codes.any():
            codes[0, 0, 1, 1] = 1
        delta = 0.05 + r.random()
        bn = make_bn(r.normal(size=1), r.normal(scale=0.5, size=1),
                     r.normal(size=1), [0.05 + abs(r.normal())])
        cp = lower_layer(ternary_from_codes(codes, delta), bn=bn).channels[0]
        s_all = assigns @ codes.reshape(-1)
        for s in s_all:
            assert apply_channel(cp, int(s)) == bn_predicate(bn, 0, delta, int(s))


# -------------------------------------------------------------- lower_layer

def test_lower_layer_conv_index_sets():
    codes = np.zeros((2, 3, 3, 3), dtype=np.int8)
    codes[0, 1, 0, 2] = 1
    codes[0, 2, 2, 1] = -1
    bn = make_bn([1.0, 1.0], [0.0, 0.5], [0.0, 0.0], [1.0, 1.0])
    chans = lower_layer(ternary_from_codes(codes, 0.5), bn=bn).channels
    assert chans[0].p == ((1, 0, 2),)
    assert chans[0].n == ((2, 2, 1),)
    assert chans[0].theta == 0 and chans[0].flip is False
    # channel 1 is dead: S == 0, predicate 0 + beta*sigma > 0 holds
    assert chans[1].const == 1


def test_lower_layer_dense_dead_and_theta():
    codes = np.zeros((6, 3), dtype=np.int8)
    codes[0, 0] = 1
    codes[4, 0] = -1
    codes[2, 1] = 1
    chans = lower_layer(ternary_from_codes(codes, 0.5),
                        bias=[0.0, -1.2, 0.3]).channels
    assert chans[0].p == (0,) and chans[0].n == (4,) and chans[0].theta == 0
    assert chans[1].theta == math.floor(F(12, 10) / F(1, 2))  # 2
    assert chans[2].const == 1  # dead, bias 0.3 > 0 at S == 0


def test_zero_codes_never_appear_in_index_sets():
    m = randomized_quantized_model(17)
    prog = lower_model(m)
    r = np.random.default_rng(17)
    layer_names = ["conv0", "res0.c1", "res0.c2", "dense1", "dense2"]
    for _ in range(100):
        name = layer_names[r.integers(len(layer_names))]
        layer = prog.layer(name)
        t = extract_ternary(m.weights[name], m.delta_of(name))
        ci = int(r.integers(len(layer.channels)))
        cp = layer.channels[ci]
        if t.codes.ndim == 4:
            row = t.codes[ci]
            idx = tuple(int(r.integers(d)) for d in row.shape)
        else:
            row = t.codes[:, ci]
            idx = int(r.integers(row.shape[0]))
        code = int(row[idx])
        if code == 1:
            assert idx in cp.p
        elif code == -1:
            assert idx in cp.n
        else:
            assert idx not in cp.p and idx not in cp.n


# -------------------------------------------------------------- output fold

def test_fold_output_requires_antisymmetry():
    r = np.random.default_rng(3)
    col1 = r.integers(-1, 2, size=8)
    col1[0] = 1
    codes = np.stack([-col1, col1], axis=1)
    assert fold_output_pair(ternary_from_codes(codes, 0.4), [0.1, -0.2]) is not None
    broken = codes.copy()
    broken[0, 0] = 1  # no longer the negation of column 1
    assert fold_output_pair(ternary_from_codes(broken, 0.4), [0.1, -0.2]) is None


@pytest.mark.parametrize("mode,threshold", [("threshold", 0.505),
                                            ("threshold", 0.73),
                                            ("argmax", None)])
def test_fold_output_matches_rational_decision(mode, threshold):
    r = np.random.default_rng(5)
    in_w = 8
    for trial in range(30):
        col1 = r.integers(-1, 2, size=in_w)
        codes = np.stack([-col1, col1], axis=1)
        delta = 0.05 + r.random()
        bias = r.normal(scale=0.4, size=2)
        kw = {"mode": mode}
        if threshold is not None:
            kw["threshold"] = threshold
        cp = fold_output_pair(ternary_from_codes(codes, delta), bias, **kw)
        db = F(float(bias[1])) - F(float(bias[0]))
        dlt = F(float(delta))
        for bits in itertools.product((0, 1), repeat=in_w):
            s1 = int(col1 @ np.array(bits))
            logit_diff = 2 * dlt * s1 + db
            if mode == "threshold":
                want = int(logit_diff >= F(math.log(threshold / (1 - threshold))))
            else:
                want = int(logit_diff > 0)
            assert apply_channel(cp, s1) == want, f"trial {trial}, bits {bits}"


def test_fold_output_all_zero_rows():
    codes = np.zeros((8, 2), dtype=np.int8)
    cp = fold_output_pair(ternary_from_codes(codes, 0.4), [0.0, 1.0])
    assert cp.const == 1  # logit difference is the bias gap alone
    cp = fold_output_pair(ternary_from_codes(codes, 0.4), [1.0, 0.0])
    assert cp.const == 0


# -------------------------------------------------------- program execution

def test_program_matches_exact_model_folded():
    for seed in (1, 4):
        m = randomized_quantized_model(seed)
        antisymmetrize_output(m)
        prog = lower_model(m)
        assert prog.layers[-1].decision == "folded"
        assert prog.warnings == []
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(200, 4, 16, 1), dtype=np.uint8)
        labels, planes = run_program(prog, bits, return_planes=True)
        exact_labels, _, exact_planes = exact_bit_forward(m, bits,
                                                          return_planes=True)
        assert np.array_equal(labels, exact_labels)
        exact_by_name = dict(exact_planes)
        for name, plane in planes:
            if name in exact_by_name:
                assert np.array_equal(plane, exact_by_name[name]), name


def test_program_matches_exact_model_compare_fallback():
    """On a saturated and on a firing random model: random rows are not
    antisymmetric."""
    for make in (randomized_quantized_model, randomized_firing_model):
        m = make(2)
        prog = lower_model(m)
        assert prog.layers[-1].decision == "compare"
        assert any("antisymmetric" in w for w in prog.warnings)
        bits = np.random.default_rng(2).integers(0, 2, size=(200, 4, 16, 1),
                                                 dtype=np.uint8)
        labels = run_program(prog, bits)
        exact_labels, _ = exact_bit_forward(m, bits)
        assert np.array_equal(labels, exact_labels)
        assert_same_planes(prog, m, bits)


def test_compare_decision_takes_the_decision_threshold():
    """A compare decision decides at the model's decision threshold, not
    by argmax (score > 0.5): with a threshold beyond the nearest score on
    either side of 0.5, the program gives the exact model's labels, which
    differ from argmax's on the samples of that score."""
    m = randomized_firing_model(2)
    bits = np.random.default_rng(2).integers(0, 2, size=(200, 4, 16, 1),
                                             dtype=np.uint8)
    _, scores = exact_bit_forward(m, bits)
    for near in (scores[scores < 0.5].max(), scores[scores > 0.5].min()):
        m.cfg.decision_threshold = float(near + (near > 0.5)) / 2
        labels = run_program(lower_model(m), bits)
        assert np.array_equal(labels, exact_bit_forward(m, bits)[0])
        assert not np.array_equal(labels, scores > 0.5)


def test_program_matches_exact_two_blocks_wider_group():
    """On a saturated and on a firing random model."""
    cfg = small_cfg(residual_blocks=2, group_size=4)
    for m in (randomized_quantized_model(8, cfg),
              randomized_firing_model(8, cfg, antisymmetric=True)):
        antisymmetrize_output(m)
        prog = lower_model(m)
        assert prog.layer("res1.c2").skip_from == "res0.c2"
        bits = np.random.default_rng(8).integers(0, 2, size=(120, 4, 16, 4),
                                                 dtype=np.uint8)
        labels = run_program(prog, bits)
        exact_labels, _ = exact_bit_forward(m, bits)
        assert np.array_equal(labels, exact_labels)
        assert_same_planes(prog, m, bits)


def test_run_program_gemm_blocks_agree(monkeypatch):
    m = randomized_quantized_model(8, cfg=small_cfg(group_size=2))
    prog = lower_model(m)
    bits = np.random.default_rng(8).integers(0, 2, size=(37, 4, 16, 2),
                                             dtype=np.uint8)
    labels, planes = run_program(prog, bits, return_planes=True)
    # 5 samples per block at 16x2 positions each; the last block is partial
    monkeypatch.setattr(nn, "GEMM_ROWS", 5 * 32)
    blocked_labels, blocked_planes = run_program(prog, bits,
                                                 return_planes=True)
    assert np.array_equal(labels, blocked_labels)
    for (name, plane), (_, blocked) in zip(planes, blocked_planes):
        assert np.array_equal(plane, blocked), name


def _both_routes(prog, m, bits):
    """[(name, array)] of run_program's and exact_bit_forward's labels,
    scores and planes on bits."""
    labels, planes = run_program(prog, bits, return_planes=True)
    exact_labels, scores, exact_planes = exact_bit_forward(
        m, bits, return_planes=True)
    return ([("labels", labels)] + planes + [("exact labels", exact_labels),
                                             ("scores", scores)]
            + [("exact " + name, p) for name, p in exact_planes])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), group_size=st.sampled_from((1, 2, 8)),
       fold=st.booleans(), n=st.sampled_from((0, 1, 65, 150)))
# Most random models give one label on every input; on these the labels
# take both values.
@example(seed=6, group_size=1, fold=False, n=150)
@example(seed=6, group_size=1, fold=True, n=150)
@example(seed=5, group_size=2, fold=False, n=150)
@example(seed=5, group_size=2, fold=True, n=150)
@example(seed=31, group_size=8, fold=False, n=150)
@example(seed=31, group_size=8, fold=True, n=150)
def test_routes_do_not_depend_on_the_block_size(seed, group_size, fold, n):
    """run_layers runs blocks of model.block_samples(g) samples: two, three
    with a remainder, or none at all give the labels, scores and every
    plane of both routes that one block gives."""
    m = randomized_quantized_model(seed, cfg=small_cfg(group_size=group_size))
    if fold:
        antisymmetrize_output(m)
    prog = lower_model(m)
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(n, 4, 16, group_size), dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "SCORE_ROWS", 1 << 30)
        whole = _both_routes(prog, m, bits)
        for block in (64, 100):  # 150 samples: 64 + 64 + 22, 100 + 50
            mp.setattr(model_module, "SCORE_ROWS", block * 16 * group_size)
            assert model_module.block_samples(group_size) == block
            blocked = _both_routes(prog, m, bits)
            assert [name for name, _ in blocked] == [
                name for name, _ in whole]
            for (name, got), (_, want) in zip(blocked, whole):
                assert got.dtype == want.dtype and len(got) == n, name
                assert np.array_equal(got, want), (block, name)


def test_labels_only_run_program_memory_is_flat_in_samples():
    """A labels-only call holds one block of sums and bits at a time: at
    g=8, 256 samples are 4 blocks of 64, and 4x the samples stay within
    1.25x the traced peak."""
    tracemalloc = pytest.importorskip("tracemalloc")
    m = randomized_quantized_model(9, cfg=small_cfg(group_size=8))
    prog = lower_model(m)
    assert model_module.block_samples(8) == 64
    bits = np.random.default_rng(9).integers(0, 2, size=(4 * 256, 4, 16, 8),
                                             dtype=np.uint8)
    run_program(prog, bits[:256])
    peaks = []
    for n in (256, 4 * 256):
        tracemalloc.start()
        try:
            run_program(prog, bits[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_run_program_single_sample_and_validation():
    m = randomized_quantized_model(6)
    prog = lower_model(m)
    bits = np.random.default_rng(6).integers(0, 2, size=(4, 16, 1),
                                             dtype=np.uint8)
    single = run_program(prog, bits)
    batch = run_program(prog, bits[None])
    assert single == batch[0]
    with pytest.raises(ValueError):
        run_program(prog, np.zeros((4, 16, 2), dtype=np.uint8))  # wrong group
    with pytest.raises(ValueError):
        run_program(prog, np.full((4, 16, 1), 2, dtype=np.uint8))
    with pytest.raises(ValueError):
        run_program(prog, np.full((4, 16, 1), 0.5))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), group_size=st.sampled_from((1, 2)),
       blocks=st.integers(1, 2), fold=st.booleans())
def test_program_planes_equal_exact_forward_property(seed, group_size, blocks,
                                                     fold):
    m = randomized_quantized_model(
        seed, cfg=small_cfg(residual_blocks=blocks, group_size=group_size))
    if fold:
        antisymmetrize_output(m)
    prog = lower_model(m)
    assert prog.layers[-1].decision == ("folded" if fold else "compare")
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(64, 4, 16, group_size), dtype=np.uint8)
    labels, planes = run_program(prog, bits, return_planes=True)
    exact_labels, _, exact_planes = exact_bit_forward(m, bits,
                                                      return_planes=True)
    assert np.array_equal(labels, exact_labels)
    exact_by_name = dict(exact_planes)
    for name, plane in planes:
        want = labels[:, None] if name == "out" else exact_by_name[name]
        assert np.array_equal(plane, want), name


def _planted_skip_model():
    """Planted conv0 channel 0 (C_l & ~C_r) and an identity res0.c2 whose
    output is a1 | h0, so the skip bit shows in its plane."""
    m = _planted_conv0_model()
    identity_bn(m.norms["res0.c2"])
    m.weights["res0.c2"][:] = 0.0
    for c in range(m.cfg.channels):
        m.weights["res0.c2"][c, c, 1, 1] = 10.0
    return m


def test_dead_channel_in_skip_layer_passes_skip_bit():
    m = _planted_skip_model()
    m.weights["res0.c2"][0] = 0.0  # no codes: channel 0's sum is the skip bit alone
    prog = lower_model(m)
    cp = prog.layer("res0.c2").channels[0]
    assert cp.const is None and cp.fan_in == 0
    bits = np.random.default_rng(14).integers(0, 2, size=(200, 4, 16, 1),
                                              dtype=np.uint8)
    _, planes = run_program(prog, bits, return_planes=True)
    _, _, exact_planes = exact_bit_forward(m, bits, return_planes=True)
    plane = dict(planes)["res0.c2"]
    assert plane[:, 0].any()
    assert np.array_equal(plane, dict(exact_planes)["res0.c2"])
    assert verify_equivalence(prog, m, trials=100, exhaustive_width=9).passed


def _raise_theta(prog):
    layer = prog.layer("conv0")
    set_channel(layer, 0, theta=layer.theta[0] + 1)


def _drop_p_index(prog):
    set_channel(prog.layer("conv0"), 0, p=())


def _drop_skip(prog):
    prog.layer("res0.c2").skip_from = None


def _flip_res0_c1(prog):
    layer = prog.layer("res0.c1")
    assert layer.const[0] < 0
    set_channel(layer, 0, flip=not layer.flip[0])


@pytest.mark.parametrize("edit", [_raise_theta, _drop_p_index, _drop_skip,
                                  _flip_res0_c1])
def test_run_program_sees_in_place_edits(edit):
    m = _planted_skip_model()
    bits = np.random.default_rng(12).integers(0, 2, size=(200, 4, 16, 1),
                                              dtype=np.uint8)
    prog = lower_model(m)
    _, before = run_program(prog, bits, return_planes=True)
    edit(prog)
    fresh = lower_model(m)
    edit(fresh)
    labels, planes = run_program(prog, bits, return_planes=True)
    want_labels, want_planes = run_program(fresh, bits, return_planes=True)
    assert np.array_equal(labels, want_labels)
    assert [name for name, _ in planes] == [name for name, _ in want_planes]
    for (name, plane), (_, want) in zip(planes, want_planes):
        assert np.array_equal(plane, want), name
    assert any(not np.array_equal(a, b)
               for (_, a), (_, b) in zip(planes, before))
    rep = verify_equivalence(prog, m, trials=200, exhaustive_width=0)
    assert not rep.passed


def ref_program(prog, bits):
    """(labels, {name: plane}) of a program with a folded decision, from
    the definitions: each channel's P and N lists as a +-1 kernel, its sum
    S as a float64 'same' conv or dense product over the bits before it
    plus the skip bits, its bit (S > theta) ^ flip or its constant. Maps
    are [N, C, 16, g], as run_program names them."""
    h, planes = np.asarray(bits, np.float64), {}
    for layer in prog.layers:
        dims = (layer.in_width,) + tuple(layer.kernel or ())
        k = np.zeros((len(layer.channels),) + dims)
        for c, cp in enumerate(layer.channels):
            for entry in cp.p:
                k[(c,) + tuple(np.atleast_1d(entry))] += 1
            for entry in cp.n:
                k[(c,) + tuple(np.atleast_1d(entry))] -= 1
        s = (_ref_conv(h, k) if layer.kind == "conv"
             else h.reshape(len(h), -1) @ k.T)
        if layer.skip_from is not None:
            s = s + planes[layer.skip_from]
        col = (slice(None),) + (None,) * (s.ndim - 2)
        theta = np.array([float(t) for t in layer.theta])[col]
        fired = (s > theta) ^ layer.flip[col]
        fired = np.where(layer.const[col] >= 0, layer.const[col], fired)
        planes[layer.name] = h = fired.astype(np.uint8)
    return h[:, 0], planes


def _hand_program(kernel0, skip, g, seed):
    """Layers a (4 -> 3 channels, kernel0) and b (3x3, 3 -> 3, its sums
    taking a's bits when skip) with random codes and batchnorm folds, then
    a folded dense decision."""
    r = np.random.default_rng(seed)

    def conv(name, c_in, kernel, skip_from=None):
        codes = r.integers(-1, 2, size=(3, c_in) + kernel)
        bn = make_bn(r.choice([-1.0, 1.0], 3), np.zeros(3),
                     r.normal(scale=2.0, size=3), np.ones(3))
        return lower_layer(ternary_from_codes(codes, 1.0), bn=bn, name=name,
                           skip_from=skip_from)

    codes = r.integers(-1, 2, size=3 * 16 * g)
    out = ChannelProgram(tuple(np.flatnonzero(codes > 0).tolist()),
                         tuple(np.flatnonzero(codes < 0).tolist()))
    return BooleanProgram(group_size=g, layers=[
        conv("a", 4, kernel0), conv("b", 3, (3, 3), "a" if skip else None),
        LayerProgram.from_channels("out", "dense", 3 * 16 * g, None, [out],
                                   decision="folded")])


@pytest.mark.parametrize("kernel0, skip", [((3, 3), False), ((1, 1), True)],
                         ids=["3x3_first_layer", "skip_on_second_layer"])
def test_program_off_the_table_route_runs_gemms(monkeypatch, kernel0, skip):
    """A program whose first layer is no 1x1 conv, or whose second takes a
    skip, gets no tables: both its convs run through conv_sums, and its
    labels and planes are those of the definitions."""
    prog = _hand_program(kernel0, skip, g=2, seed=5)
    layers = lowering._compiled_layers(prog)
    assert all(el.bit_table is None and el.sum_tables is None
               for el in layers)
    calls = []
    conv_sums = nn.conv_sums
    monkeypatch.setattr(nn, "conv_sums", lambda *a, **kw: calls.append(
        a[1]) or conv_sums(*a, **kw))
    bits = np.random.default_rng(5).integers(0, 2, size=(600, 4, 16, 2),
                                             dtype=np.uint8)
    labels, planes = run_program(prog, bits, return_planes=True)
    assert model_module.block_samples(2) == 256  # blocks of 256, 256, 88
    assert calls == [nn._live_taps(*nn._same_pad(*kernel0), 16, 2)[0],
                     (1, 1)] * 3
    want_labels, want = ref_program(prog, bits)
    assert np.array_equal(labels, want_labels)
    assert set(labels.tolist()) == {0, 1}
    for name, plane in planes:
        assert np.array_equal(plane, want[name]), name
        assert 0 < plane.mean() < 1, name


def test_run_program_clamps_out_of_range_thresholds():
    prog = lower_model(_planted_conv0_model())
    bits = np.random.default_rng(13).integers(0, 2, size=(50, 4, 16, 1),
                                              dtype=np.uint8)
    for theta, flip, want in ((10**400, False, 0), (-10**400, False, 1),
                              (2**24 + 1, True, 1), (-2**24 - 3, True, 0)):
        set_channel(prog.layer("conv0"), 0, theta=theta, flip=flip)
        _, planes = run_program(prog, bits, return_planes=True)
        assert (dict(planes)["conv0"][:, 0] == want).all(), theta


def test_run_program_asserts_float32_exact_bound(monkeypatch):
    m = randomized_quantized_model(6)
    bits = np.zeros((3, 4, 16, 1), dtype=np.uint8)
    prog = lower_model(m)
    widest = max(cp.fan_in + (layer.skip_from is not None)
                 for layer in prog.layers for cp in layer.channels)
    monkeypatch.setattr(nn, "F32_EXACT_LIMIT", widest + 1)
    run_program(prog, bits)
    monkeypatch.setattr(nn, "F32_EXACT_LIMIT", widest)
    with pytest.raises(ValueError, match="float32"):
        run_program(lower_model(m), bits)


def test_lower_model_requires_full_stage():
    m = build_model(small_cfg(), seed=0)
    with pytest.raises(ValueError):
        lower_model(m)
    m.set_stage("weights")
    with pytest.raises(ValueError):
        lower_model(m)


# -------------------------------------------------------------- equivalence

def test_verify_equivalence_passes():
    m = randomized_quantized_model(14)
    antisymmetrize_output(m)
    prog = lower_model(m)
    rep = verify_equivalence(prog, m, trials=300, exhaustive_width=9, seed=0)
    assert rep.passed and rep.counterexample is None
    assert rep.trials_run == 300
    assert rep.exhaustive_channels > 0


@pytest.mark.parametrize("fold", [False, True])
def test_verify_without_trials_proves_every_channel(fold):
    m = randomized_quantized_model(14, cfg=small_cfg(group_size=2))
    m.norms["res0.c1"].gamma[1] = 0.0  # a constant channel
    if fold:
        antisymmetrize_output(m)
    prog = lower_model(m)
    assert prog.layer("res0.c1").channels[1].const is not None
    assert (prog.layers[-1].decision == "folded") == fold
    rep = verify_equivalence(prog, m, trials=0, exhaustive_width=0)
    assert rep.passed and rep.trials_run == 0
    assert rep.exhaustive_channels == rep.total_channels == sum(
        len(lp.channels) for lp in prog.layers if lp.decision != "compare")


def _planted_conv0_model():
    m = randomized_quantized_model(3)
    identity_bn(m.norms["conv0"])
    m.weights["conv0"][:] = 0.0
    m.weights["conv0"][0, 0, 0, 0] = 10.0
    m.weights["conv0"][0, 1, 0, 0] = -10.0
    return m


def test_verify_catches_removed_p_index():
    m = _planted_conv0_model()
    prog = lower_model(m)
    assert prog.layer("conv0").channels[0].p == ((0, 0, 0),)
    set_channel(prog.layer("conv0"), 0, p=())
    rep = verify_equivalence(prog, m, trials=0, exhaustive_width=9)
    assert not rep.passed
    assert rep.counterexample["layer"] == "conv0"
    assert rep.counterexample["channel"] == 0
    assert rep.counterexample["support"] == [(0, 0, 0)]


def test_verify_sweep_catches_predicate_mismatch(monkeypatch):
    # The sweep evaluates the rational predicate itself, so a predicate
    # that disagrees with the switch points at one reachable sum of a
    # narrow channel fails verification there, and only with the sweep on.
    m = _planted_conv0_model()
    prog = lower_model(m)
    assert verify_equivalence(prog, m, trials=0, exhaustive_width=9).passed
    real = lowering.exact_predicate

    def skewed(model, spec):
        pred = real(model, spec)
        if spec.name != "conv0":
            return pred
        return lambda c, s: pred(c, s) != ((c, s) == (0, 1))

    monkeypatch.setattr(lowering, "exact_predicate", skewed)
    rep = verify_equivalence(prog, m, trials=0, exhaustive_width=9)
    assert not rep.passed
    assert rep.counterexample == {"layer": "conv0", "channel": 0, "sum": 1,
                                  "program_bit": 1, "model_bit": 0}
    assert verify_equivalence(prog, m, trials=0, exhaustive_width=0).passed


def test_verify_catches_theta_shift():
    m = _planted_conv0_model()
    prog = lower_model(m)
    _raise_theta(prog)
    rep = verify_equivalence(prog, m, trials=0, exhaustive_width=9)
    assert not rep.passed
    assert rep.counterexample["layer"] == "conv0"


def test_verify_catches_dropped_skip():
    m = randomized_quantized_model(5)
    identity_bn(m.norms["res0.c2"])
    m.weights["res0.c2"][:] = 0.0
    for c in range(m.cfg.channels):
        m.weights["res0.c2"][c, c, 1, 1] = 10.0
    prog = lower_model(m)
    prog.layer("res0.c2").skip_from = None
    rep = verify_equivalence(prog, m, trials=0, exhaustive_width=9)
    assert not rep.passed
    assert rep.counterexample["layer"] == "res0.c2"
    assert "skip" in rep.counterexample["support"]


def test_verify_random_trials_catch_wide_channel_mutation():
    # Exhaustive sweeps skip wide channels; the random phase must still see
    # a dropped index through every downstream layer. Identity batchnorms
    # keep the feeding plane varying, theta 0 keeps the sum near the
    # boundary, and the removed index is picked from bits that fire.
    m = randomized_quantized_model(7)
    for bn in [m.norms["conv0"], m.norms["res0.c1"], m.norms["res0.c2"]]:
        identity_bn(bn)
    m.norms["dense1"][:] = 0.0
    m.deltas["dense1"][()] = 0.05  # small step keeps most codes nonzero
    prog = lower_model(m)
    bits = np.random.default_rng(99).integers(0, 2, size=(300, 4, 16, 1),
                                              dtype=np.uint8)
    _, _, planes = exact_bit_forward(m, bits, return_planes=True)
    rates = dict(planes)["res0.c2"].reshape(300, -1).mean(axis=0)
    cp = prog.layer("dense1").channels[0]
    victim = next(i for i in cp.p if 0.05 < rates[i] < 0.95)
    set_channel(prog.layer("dense1"), 0,
                p=tuple(i for i in cp.p if i != victim))
    rep = verify_equivalence(prog, m, trials=4000, exhaustive_width=0, seed=1)
    assert not rep.passed
    assert rep.counterexample["first_divergence"] == "dense1"


# -------------------------------------------------------------- expressions

def test_table_pattern_expressions():
    pairs = [(((2, 0, 0),), ((0, 0, 0),), "C_l' & ~C_l"),
             (((0, 0, 0),), ((2, 0, 0),), "C_l & ~C_l'"),
             (((1, 0, 0),), ((3, 0, 0),), "C_r & ~C_r'"),
             (((3, 0, 0),), ((1, 0, 0),), "C_r' & ~C_r")]
    for p, n, want in pairs:
        cp = ChannelProgram(p=p, n=n, theta=0)
        assert synthesize_expression(
            cp, names=conv0_literal_names(cp)) == want


def _products(formula):
    """The products of an EXPR formula, each a tuple of (name, polarity):
    none for "0", one empty product for "1"."""
    if formula in ("0", "1"):
        return [()] * int(formula)
    return [tuple((lit.lstrip("~"), not lit.startswith("~"))
                  for lit in term.split(" & "))
            for term in formula.split(" | ")]


def test_expression_matches_indicator_truth_table():
    """The formula is the channel's function, and its cover is minimal:
    every term is prime, and every k-subset of the literals (P entries
    true, N entries negated, both swapped under flip) is a term, where k
    is the fewest true literals at which the channel fires."""
    r = np.random.default_rng(23)
    for _ in range(60):
        n = int(r.integers(1, 9))
        idx = list(r.permutation(16)[:n])
        cut = int(r.integers(0, n + 1))
        cp = ChannelProgram(p=tuple(int(i) for i in idx[:cut]),
                            n=tuple(int(i) for i in idx[cut:]),
                            theta=int(r.integers(-n - 1, n + 1)),
                            flip=bool(r.integers(2)))
        terms = _products(synthesize_expression(cp))
        assert terms == sorted(terms)
        table = np.array(list(itertools.product((0, 1), repeat=n)))
        fires = np.array([apply_channel(cp, sum(bits[:cut]) - sum(bits[cut:]))
                          for bits in table.tolist()])
        for bits, want in zip(table.tolist(), fires):
            assert any(all(bits[int(v[1:])] == pol for v, pol in term)
                       for term in terms) == want
        literals = [(f"x{i}", (i < cut) != cp.flip) for i in range(n)]
        true_literals = (table == [pol for _, pol in literals]).sum(axis=1)
        if not fires.any():
            assert terms == []
            continue
        k = int(true_literals[fires == 1].min())
        assert set(terms) == set(itertools.combinations(literals, k))
        assert len(terms) == math.comb(n, k)
        for term in terms:
            cols = [int(v[1:]) for v, _ in term]
            holds = table[:, cols] == [pol for _, pol in term]
            for j in range(len(term)):
                shorter = np.delete(holds, j, axis=1).all(axis=1)
                assert (shorter & (fires == 0)).any(), (cp, term, j)


def test_expression_constants_and_limits():
    assert synthesize_expression(ChannelProgram(p=(), n=(), const=0)) == "0"
    assert synthesize_expression(ChannelProgram(p=(), n=(), const=1)) == "1"
    # theta at or above fan-in: never fires; below -|N|: always fires
    assert synthesize_expression(ChannelProgram(p=(0,), n=(), theta=1)) == "0"
    assert synthesize_expression(ChannelProgram(p=(0,), n=(1,), theta=-2)) == "1"
    with pytest.raises(ValueError):
        synthesize_expression(ChannelProgram(p=tuple(range(5)),
                                             n=tuple(range(5, 9))))


def test_expression_majority_minimal():
    cp = ChannelProgram(p=(0, 1, 2), n=(), theta=1)
    assert synthesize_expression(cp) == "x0 & x1 | x0 & x2 | x1 & x2"


def test_expression_flip_demorgan():
    cp = ChannelProgram(p=(0,), n=(1,), theta=0, flip=True)
    assert synthesize_expression(cp) == "~x0 | x1"


def test_program_expressions_listing():
    m = _planted_conv0_model()
    prog = lower_model(m)
    entries = program_expressions(prog)
    by_key = {(ln, ci): f for ln, ci, f in entries}
    assert by_key[("conv0", 0)] == "C_l & ~C_r"
    # wide dense channels are skipped, constants are skipped
    assert all(ln != "dense1" or len(prog.layer("dense1").channels[ci].p)
               + len(prog.layer("dense1").channels[ci].n) <= 8
               for ln, ci, _ in entries)


def _formula_plane(formula, layer, cp, inputs, shape):
    """An EXPR formula evaluated at every output position of its channel;
    inputs are the layer's input bits, [N, C, H, W] or [N, F]."""
    entries = list(cp.p) + list(cp.n)
    if layer.kind == "conv":
        (kh, kw), (_, _, hh, ww) = layer.kernel, inputs.shape
        padded = np.pad(inputs, ((0, 0), (0, 0), (kh // 2,) * 2, (kw // 2,) * 2))
        lits = [padded[:, c, u:u + hh, v:v + ww] for c, u, v in entries]
    else:
        lits = [inputs[:, i] for i in entries]
    if layer.name == "conv0":
        names = conv0_literal_names(cp)
    else:
        names = [f"x{i}" for i in range(len(entries))]
    values = {name: lit.astype(bool) for name, lit in zip(names, lits)}
    out = np.zeros(shape, dtype=bool)
    for term in _products(formula):
        t = np.ones(shape, dtype=bool)
        for v, pol in term:
            t &= values[v] if pol else ~values[v]
        out |= t
    return out.astype(np.uint8)


def test_saved_expressions_match_channel_planes(tmp_path):
    m = _planted_skip_model()
    prog = lower_model(m)
    path = tmp_path / "prog.bprog"
    save_program(prog, path)
    lines = path.read_text().splitlines()
    exprs = [re.match(r"(\S+) ch=(\d+): (.*)$", ln).groups()
             for ln in lines[lines.index("EXPR") + 1:]]
    assert ("conv0", "0", "C_l & ~C_r") in exprs
    # res0.c2 ORs in the skip bit, which no formula over P and N shows
    assert all(name != "res0.c2" for name, _, _ in exprs)

    bits = np.random.default_rng(15).integers(0, 2, size=(200, 4, 16, 1),
                                              dtype=np.uint8)
    _, planes = run_program(prog, bits, return_planes=True)
    inputs, by_layer = {}, dict(planes)
    prev = bits
    for layer in prog.layers:
        inputs[layer.name] = prev if layer.kind == "conv" else prev.reshape(
            len(bits), -1)
        prev = by_layer.get(layer.name)  # none after a compare decision
    for name, ci, formula in exprs:
        layer = prog.layer(name)
        plane = by_layer[name][:, int(ci)]
        got = _formula_plane(formula, layer, layer.channels[int(ci)],
                             inputs[name], plane.shape)
        assert np.array_equal(got, plane), (name, ci, formula)


# -------------------------------------------------------------- persistence

def test_program_roundtrip_folded(tmp_path):
    m = randomized_quantized_model(31)
    antisymmetrize_output(m)
    prog = lower_model(m)
    path = tmp_path / "prog.bprog"
    save_program(prog, path)
    run_program(prog, np.zeros((1, 4, 16, 1), dtype=np.uint8))
    loaded = load_program(path)
    assert loaded == prog  # the execution cache takes no part in ==
    bits = np.random.default_rng(31).integers(0, 2, size=(100, 4, 16, 1),
                                              dtype=np.uint8)
    assert np.array_equal(run_program(loaded, bits), run_program(prog, bits))


def test_program_roundtrip_compare(tmp_path):
    m = randomized_quantized_model(32)
    prog = lower_model(m)
    path = tmp_path / "prog.bprog"
    save_program(prog, path)
    loaded = load_program(path)
    assert loaded == prog
    assert loaded.warnings == prog.warnings
    assert loaded.layers[-1].compare_theta == prog.layers[-1].compare_theta


def test_program_file_format(tmp_path):
    m = _planted_conv0_model()
    prog = lower_model(m)
    path = tmp_path / "prog.bprog"
    save_program(prog, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == f"BPROG v1 layout=4x16x1 layers={len(prog.layers)}"
    assert "EXPR" in lines
    assert any(ln.startswith("conv0 ch=0: ") for ln in lines)
    assert any("IND ch=0 theta=0 flip=0 P=[(0,0,0)] N=[(1,0,0)]" == ln
               for ln in lines)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.bprog"
    bad.write_text("BOGUS v1\n")
    with pytest.raises(ValueError):
        load_program(bad)
    bad.write_text("BPROG v1 layout=4x16x1 layers=1\nIND ch=0 theta=0 flip=0 "
                   "P=[] N=[]\n")
    with pytest.raises(ValueError):
        load_program(bad)
    bad.write_text("BPROG v1 layout=4x16x1 layers=1\nWAT name=x\n")
    with pytest.raises(ValueError):
        load_program(bad)
    bad.write_text("BPROG v1 layout=8x8x1 layers=0\n")
    with pytest.raises(ValueError):
        load_program(bad)


@pytest.fixture(scope="module")
def program_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("programs")


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), folded=st.booleans(),
       group_size=st.sampled_from([1, 2]))
def test_program_roundtrip_property(program_dir, seed, folded, group_size):
    m = randomized_quantized_model(seed, cfg=small_cfg(group_size=group_size))
    if folded:
        antisymmetrize_output(m)
    prog = lower_model(m)
    path, again = program_dir / "rt.bprog", program_dir / "rt2.bprog"
    save_program(prog, path)
    loaded = load_program(path)
    assert loaded == prog
    save_program(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(64, 4, 16, group_size), dtype=np.uint8)
    labels, planes = run_program(loaded, bits, return_planes=True)
    want, want_planes = run_program(prog, bits, return_planes=True)
    assert np.array_equal(labels, want)
    for (name, plane), (want_name, want_plane) in zip(planes, want_planes):
        assert name == want_name and np.array_equal(plane, want_plane)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), folded=st.booleans(),
       group_size=st.sampled_from([1, 2]), blocks=st.integers(1, 2))
def test_layer_arrays_match_channel_views_property(program_dir, seed, folded,
                                                   group_size, blocks):
    """A lowered program survives save and load, and its layer arrays are
    what their ChannelProgram views hold: count_model bills the views'
    entries, and the views rebuild each layer."""
    m = randomized_quantized_model(
        seed, cfg=small_cfg(group_size=group_size, residual_blocks=blocks))
    if folded:
        antisymmetrize_output(m)
    prog = lower_model(m)
    path, again = program_dir / "views.bprog", program_dir / "views2.bprog"
    save_program(prog, path)
    loaded = load_program(path)
    assert loaded == prog
    save_program(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    bools = adds = indicators = 0
    for layer in loaded.layers:
        views = list(layer.channels)
        assert len(views) == len(layer.channels) == len(layer.theta)
        assert all(set(cp.p).isdisjoint(cp.n) for cp in views)
        assert LayerProgram.from_channels(
            layer.name, layer.kind, layer.in_width, layer.kernel, views,
            skip_from=layer.skip_from, decision=layer.decision,
            compare_theta=layer.compare_theta) == layer
        d = 16 * group_size if layer.kind == "conv" else 1
        live = sum(1 for cp in views if cp.fan_in)
        nnz = sum(cp.fan_in for cp in views)
        bools += nnz * d
        adds += (nnz - live) * d + (layer.decision == "compare")
        indicators += 1 if layer.decision == "compare" else live * d
    total, _ = count_model(loaded)
    assert (total.bools, total.adds, total.indicators) == (bools, adds,
                                                           indicators)


def _move_p_entry_to_n(layer):
    """The last P entry of channel 0 becomes its first N entry."""
    layer.offsets[1] -= 1


def _theta_plus_1(layer):
    layer.theta[0] += 1


def _flip_0(layer):
    layer.flip[0] ^= True


def _const_1(layer):
    layer.const[1] ^= 1


@pytest.mark.parametrize("edit", [_move_p_entry_to_n, _theta_plus_1, _flip_0,
                                  _const_1])
def test_in_place_array_edit_reaches_eq_and_run_program(edit):
    """conv0 computes C_l & ~C_r on channel 0 and constants on the others;
    an edit of one layer array in place makes the program differ from its
    lowering, and run_program, compiled before, computes the edited one."""
    m = _planted_conv0_model()
    prog = lower_model(m)
    assert prog.layer("conv0").channels[0].p == ((0, 0, 0),)
    assert prog.layer("conv0").channels[1].const is not None
    bits = np.random.default_rng(16).integers(0, 2, size=(100, 4, 16, 1),
                                              dtype=np.uint8)
    _, before = run_program(prog, bits, return_planes=True)
    edit(prog.layer("conv0"))
    assert prog != lower_model(m)
    _, after = run_program(prog, bits, return_planes=True)
    assert not np.array_equal(dict(after)["conv0"], dict(before)["conv0"])


@pytest.mark.parametrize("layer", ["conv0", "dense1"])
def test_load_rejects_an_index_listed_twice(tmp_path, layer):
    path = tmp_path / "twice.bprog"
    save_program(lower_model(randomized_quantized_model(5)), path)
    lines = path.read_text().splitlines()
    head = lines.index(next(ln for ln in lines
                            if ln.startswith(f"LAYER name={layer} ")))
    i = next(i for i in range(head + 1, len(lines))
             if " P=[" in lines[i] and " P=[]" not in lines[i])
    first = re.search(r" P=\[(\([0-9,]+\)|[0-9]+)", lines[i]).group(1)
    lines[i] = lines[i].replace(" P=[", f" P=[{first},")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{i + 1}: index {first} listed twice")):
        load_program(path)


# The index-list grammar as a regex, the oracle of the loader's list check:
# a dense entry is a flat input index, a conv entry a triple, in [0-9] only.
LIST_GRAMMAR = {
    "dense": re.compile(r"\[(?:[0-9]+(?:,[0-9]+)*)?\]"),
    "conv": re.compile(r"\[(?:\([0-9]+,[0-9]+,[0-9]+\)"
                       r"(?:,\([0-9]+,[0-9]+,[0-9]+\))*)?\]"),
}
LIST_CHARS = "0123456789,()[]٣ "  # U+0663 is an Arabic-Indic digit
INT64_MAX = 2**63 - 1


def assert_list_check_is_grammar(text, kind):
    """_index_list accepts text iff the grammar does, and then holds its
    numbers in order, each saturated at the int64 maximum."""
    want = LIST_GRAMMAR[kind].fullmatch(text) is not None
    try:
        got = lowering._index_list(text, kind)
    except ValueError as e:
        assert not want, text
        assert str(e) == f"malformed index list {text!r}"
        return
    assert want, text
    assert got.shape[1] == (3 if kind == "conv" else 1)
    assert got.ravel().tolist() == [min(int(v), INT64_MAX)
                                    for v in re.findall("[0-9]+", text)]


@st.composite
def index_list_texts(draw, kind):
    """A well-formed index list with up to 3 characters inserted, deleted
    or replaced, or a string of list characters."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(LIST_CHARS, max_size=24))
    number = st.integers(0, 10**22).map(str)
    entry = number if kind == "dense" else st.tuples(
        number, number, number).map(lambda t: "(" + ",".join(t) + ")")
    text = "[" + ",".join(draw(st.lists(entry, max_size=4))) + "]"
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(LIST_CHARS))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        tail = text[pos + (edit != "insert"):]
        text = text[:pos] + ("" if edit == "delete" else char) + tail
    return text


@settings(max_examples=500, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["dense", "conv"]))
def test_index_list_check_matches_the_grammar(data, kind):
    assert_list_check_is_grammar(data.draw(index_list_texts(kind)), kind)


@pytest.mark.parametrize("text", [
    "[]", "[5]", "[0,12]", "[,]", "[1,]", "[,1]", "[1,,2]", "[", "]", "",
    "[1 ]", "[٣]", "[[1]]", "[(1,2,3)]", "[(1,2,3),(4,5,6)]",
    "[5(1,2,3)]", "[(1,2,3)5]", "[(1,2,3)5,(4,5,6)]", "[(1,2,3),5(4,5,6)]",
    "[(1,2,3),]", "[(,2,3)]", "[(1,,3)]", "[(1,2,)]", "[(1,2)]",
    "[(1,2,3,4)]", "[(1,2,3)(4,5,6)]", "[((1,2,3))]", "[(1,2,3)],",
    "0[]", "[]0", "0[5]", "[5]0", "5[(1,2,3)]", "[(1,2,3)]5",
    "[99999999999999999999]", "[(99999999999999999999,0,0)]"])
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_index_list_check_edge_cases(text, kind):
    assert_list_check_is_grammar(text, kind)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["dense", "conv"]), data=st.data())
def test_layer_repeat_check_is_the_per_channel_check(kind, data):
    """One sort over a layer finds the first channel that the check of
    each channel alone finds, with its message, also where the packed key
    would overflow (indices near the int64 maximum)."""
    dims = 1 if kind == "dense" else 3
    top = data.draw(st.sampled_from((3, 40, INT64_MAX)))
    entry = st.lists(st.integers(0, top), min_size=dims, max_size=dims)
    lists = data.draw(st.lists(st.lists(entry, max_size=5), min_size=2,
                               max_size=12).filter(lambda x: len(x) % 2 == 0))
    channels = [ChannelProgram(np.array(p, dtype=np.int64).reshape(-1, dims),
                               np.array(n, dtype=np.int64).reshape(-1, dims))
                for p, n in zip(lists[::2], lists[1::2])]
    lp = LayerProgram.from_channels("x", kind, 4, (3, 3) if dims == 3
                                    else None, channels)
    want = next(((c, fault) for c, cp in enumerate(channels)
                 if (fault := lowering._listed_twice(cp.p, cp.n, kind))),
                None)
    assert lowering._first_listed_twice(lp) == want


def test_layer_repeat_check_with_an_index_at_the_int64_maximum():
    """A lone entry at the int64 maximum makes the packed key's bound
    exactly 2**63, one past what an int64 multiplier holds."""
    channels = [ChannelProgram(np.zeros((0, 1), dtype=np.int64),
                               np.array([[INT64_MAX]], dtype=np.int64))]
    lp = LayerProgram.from_channels("x", "dense", 4, None, channels)
    assert lowering._first_listed_twice(lp) is None


def _saved_lines(path):
    save_program(lower_model(randomized_quantized_model(5)), path)
    return path.read_text().splitlines()


def _list_lines(lines, layer):
    """Indexes of the layer's channel lines with theta= and a nonempty P."""
    head = lines.index(next(ln for ln in lines
                            if ln.startswith(f"LAYER name={layer} ")))
    out = []
    for i in range(head + 1, len(lines)):
        if not lines[i].startswith("IND "):
            return out
        if "theta=" in lines[i] and " P=[]" not in lines[i]:
            out.append(i)
    return out


def _first_p(line):
    return re.search(r" P=\[(\([0-9,]+\)|[0-9]+)", line).group(1)


def _repeat_p(line):
    """The line with its first P entry listed twice, and the message."""
    first = _first_p(line)
    return (line.replace(" P=[", f" P=[{first},"),
            f"index {first} listed twice")


LINE_FAULTS = {
    "malformed list": lambda ln: (ln.replace(" N=[", " N=[["),
                                  "malformed index list"),
    "unknown line kind": lambda ln: ("WAT " + ln.partition(" ")[2],
                                     "unknown line kind 'WAT'"),
    "bad theta": lambda ln: (re.sub("theta=-?[0-9]+", "theta=1_0", ln),
                             "theta=1_0 is not an integer"),
    "not UTF-8": lambda ln: (ln + "\udcff", "codec can't decode"),
    "P and N overlap": lambda ln: (ln.replace(" N=[", f" N=[{_first_p(ln)},"),
                                   "P and N must be disjoint"),
}


@pytest.mark.parametrize("fault", sorted(LINE_FAULTS))
@pytest.mark.parametrize("layers", [("dense1", "dense1"),
                                    ("res0.c1", "dense1"),
                                    ("conv0", "res0.c1")])
@pytest.mark.parametrize("repeat_first", [True, False])
def test_load_faults_keep_file_order(tmp_path, fault, layers, repeat_first):
    """An index listed twice on one line and another fault on a later line,
    of the same layer or a later one: the error names the earlier line."""
    path = tmp_path / "order.bprog"
    lines = _saved_lines(path)
    first = _list_lines(lines, layers[0])[0]
    second = _list_lines(lines, layers[1])[-1]
    assert first < second
    edits = (_repeat_p, LINE_FAULTS[fault])
    if not repeat_first:
        edits = edits[::-1]
    lines[first], message = edits[0](lines[first])
    lines[second], _ = edits[1](lines[second])
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape")
                     + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{first + 1}: ")
                       + ".*" + re.escape(message)):
        load_program(path)


@pytest.mark.parametrize("layer", ["conv0", "res0.c2", "dense1", "out"])
def test_load_rejects_an_entry_in_p_and_n(tmp_path, layer):
    path = tmp_path / "both.bprog"
    lines = _saved_lines(path)
    i = next(i for i, ln in enumerate(lines) if " P=[" in ln
             and " P=[]" not in ln and lines.index(next(
                 h for h in lines if h.startswith(f"LAYER name={layer} ")))
             < i)
    lines[i], _ = LINE_FAULTS["P and N overlap"](lines[i])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{i + 1}: P and N must be disjoint")):
        load_program(path)


@pytest.mark.parametrize("listed, shown", [
    ("99999999999999999999,99999999999999999999", str(INT64_MAX)),
    ("99999999999999999999,88888888888888888888", str(INT64_MAX)),
    ("(99999999999999999999,0,0),(99999999999999999999,0,0)",
     f"({INT64_MAX},0,0)")])
def test_load_rejects_a_saturated_index_listed_twice(tmp_path, listed,
                                                     shown):
    """Numbers past the int64 range saturate, so two of them are one index
    listed twice; the check names it before the compile finds it outside
    the layer input."""
    path = tmp_path / "huge.bprog"
    lines = _saved_lines(path)
    layer = "conv0" if listed.startswith("(") else "dense1"
    i = _list_lines(lines, layer)[0]
    lines[i] = lines[i].replace(" P=[", f" P=[{listed},")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{i + 1}: index {shown} listed twice")):
        load_program(path)


@st.composite
def damaged(draw, raw, starts=None):
    """raw cut short, or with a few bytes changed; each changed byte is in
    a part drawn first, a line or else the bytes from one of starts to the
    next, so that short header parts are hit about as often as long
    bodies."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if starts is None:
        starts = [0] + [i + 1 for i, b in enumerate(raw[:-1])
                        if b == ord("\n")]
    ends = starts[1:] + [len(raw)]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        part = draw(st.integers(0, len(starts) - 1))
        pos = draw(st.integers(starts[part], ends[part] - 1))
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


def saved_programs_in(directory):
    """The saved bytes of a folded and of a compare-decision program."""
    raws = []
    for seed, fold in ((3, True), (4, False)):
        m = randomized_quantized_model(seed)
        if fold:
            antisymmetrize_output(m)
        path = directory / f"saved{seed}.bprog"
        save_program(lower_model(m), path)
        raws.append(path.read_bytes())
    return raws


@pytest.fixture(scope="module")
def saved_programs(program_dir):
    return saved_programs_in(program_dir)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_program_loads_or_raises_value_error(program_dir,
                                                     saved_programs, data):
    path = program_dir / "damaged.bprog"
    path.write_bytes(data.draw(damaged(data.draw(st.sampled_from(
        saved_programs)))))
    try:
        prog = load_program(path)
    except ValueError:
        return
    run_program(prog, np.zeros((2, 4, 16, prog.group_size), dtype=np.uint8))
