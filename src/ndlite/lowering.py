"""Compile a fully quantized model into a Boolean/addition/indicator program.

Every ternary channel becomes index sets P (code +1) and N (code -1) plus an
integer threshold: the channel output is I(S_P - S_N > theta) xor flip.
Thresholds come from folding the layer's batchnorm (or dense bias) in exact
rational arithmetic; because the accumulator is an integer, rounding the
real decision boundary to an integer threshold never changes any output.
The residual skip is pure additions: block-input bits join the second
conv's accumulator. The antisymmetric output pair folds to one channel
compared against the decision threshold's log-odds; if the rows are not
exact negations the fold is refused and both accumulators are compared
directly. run_program compiles the program once per content into the
model module's ExactLayers, GEMM matrices from the P/N lists and
thresholds from the folds, with the table route's conv0 and res0.c1
tables built from those (model.table_route), and runs them through
model.run_layers, the loop exact_bit_forward runs too, in blocks of
model.block_samples(g) samples. Its float32 sums are exact while every
channel's fan-in plus its skip bit stays below 2**24 (nn.F32_EXACT_LIMIT),
which the compile checks. load_program reads a .bprog one line at a
time, checks each index list on its skeleton (the text without its
digits) and each layer's lists for a repeated entry with one sort once
the layer is read.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .model import (ExactLayer, Model, _frac, check_bits, content_cached,
                    content_key, exact_bit_forward, exact_layers,
                    exact_predicate, layer_specs, named_planes, route_kernel,
                    run_layers, same_content, sum_range, table_route)
from .quant import extract_ternary

INPUT_CHANNEL_NAMES = ("C_l", "C_r", "C_l'", "C_r'")
MAX_LITERALS = 8  # the widest channel given an EXPR formula


# -------------------------------------------------------------------- types

@dataclass(frozen=True)
class ChannelProgram:
    """A channel's P and N index sets as tuples; LayerProgram's view."""
    p: tuple  # conv: ((in_ch, k1, k2), ...); dense: (flat_index, ...)
    n: tuple
    theta: int = 0
    flip: bool = False
    const: int | None = None  # constant-output channel; p/n are empty

    @property
    def fan_in(self):
        return len(self.p) + len(self.n)


def _tuples(entries):
    """An [entries, 1 | 3] index array as ChannelProgram holds it."""
    return (tuple(entries[:, 0].tolist()) if entries.shape[1] == 1
            else tuple(map(tuple, entries.tolist())))


@dataclass(eq=False)
class LayerProgram:
    """One layer's channels as arrays. The index lists are P then N of each
    channel: list j is entries[offsets[j]:offsets[j + 1]], in C order, and
    a dense entry is a flat input index, a conv entry (in_ch, k1, k2)."""
    name: str
    kind: str  # "conv" | "dense"
    in_width: int  # conv: input channels; dense: flattened input width
    kernel: tuple | None  # (kh, kw) for conv
    entries: np.ndarray  # intp [entries, 1 | 3]
    offsets: np.ndarray  # intp [2 * channels + 1]
    theta: list  # Python ints, exact at any size; 0 on constant channels
    flip: np.ndarray  # bool [channels]
    const: np.ndarray  # int8 [channels]: a constant channel's bit, else -1
    skip_from: str | None = None  # layer whose output bits join the sums
    decision: str | None = None  # output layer: "folded" | "compare"
    compare_theta: int | None = None  # compare: label = I(S[1]-S[0] > this)

    @classmethod
    def from_channels(cls, name, kind, in_width, kernel, channels, **kw):
        """A layer of ChannelPrograms, for programs built by hand; their P
        and N may be any sequences of entries, [entries, 1 | 3] arrays too."""
        dims = 3 if kind == "conv" else 1
        lists = [np.asarray(s, dtype=np.intp).reshape(-1, dims)
                 for cp in channels for s in (cp.p, cp.n)]
        return cls(name, kind, in_width, kernel, np.concatenate(
            [np.empty((0, dims), dtype=np.intp)] + lists),
            np.cumsum([0] + [len(s) for s in lists], dtype=np.intp),
            [cp.theta for cp in channels],
            np.array([cp.flip for cp in channels], dtype=bool),
            np.array([-1 if cp.const is None else cp.const
                      for cp in channels], dtype=np.int8), **kw)

    @property
    def fan_in(self):
        """Each channel's P plus N entries, an int array."""
        return self.offsets[2::2] - self.offsets[:-1:2]

    @property
    def channels(self):
        return _Channels(self)

    def _fields(self):
        """Everything the layer holds but its arrays."""
        return (self.name, self.kind, self.in_width, self.kernel,
                self.skip_from, self.decision, self.compare_theta,
                tuple(self.theta))

    def _arrays(self):
        return self.entries, self.offsets, self.flip, self.const

    def __eq__(self, other):
        return (isinstance(other, LayerProgram)
                and self._fields() == other._fields()
                and same_content(self._arrays(),
                                 content_key(other._arrays())))


@dataclass
class _Channels(Sequence):
    """A layer's channels, read only; each item is built when asked for."""
    _layer: LayerProgram

    def __len__(self):
        return len(self._layer.flip)

    def __getitem__(self, c):
        lp, c = self._layer, range(len(self))[c]  # IndexError past an end
        lo, mid, hi = lp.offsets[2 * c:2 * c + 3].tolist()
        return ChannelProgram(
            _tuples(lp.entries[lo:mid]), _tuples(lp.entries[mid:hi]),
            lp.theta[c], bool(lp.flip[c]),
            None if lp.const[c] < 0 else int(lp.const[c]))


@dataclass
class BooleanProgram:
    group_size: int
    layers: list
    warnings: list = field(default_factory=list)
    # run_program's content_cached (layer fields, key, compiled layers);
    # not part of the program
    _compiled: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def layer(self, name):
        for lp in self.layers:
            if lp.name == name:
                return lp
        raise KeyError(name)


# ------------------------------------------------------------------ folding

def fold_batchnorm(bn: nn.BnState, delta):
    """Per-channel ('ind', theta, flip) or ('const', bit).

    Rewrites gamma*(delta*S - mu)/sigma + beta > 0 as S > theta (gamma > 0)
    or as not(S > theta) (gamma < 0), with sigma pinned to its float64
    value; exact over integer S.
    """
    out = []
    dlt = _frac(delta)
    for c in range(len(bn.gamma)):
        gam = _frac(bn.gamma[c])
        bet = _frac(bn.beta[c])
        mu = _frac(bn.running_mean[c])
        sig = _frac(nn.bn_sigma(bn.running_var[c], bn.eps))
        if gam == 0:
            out.append(("const", 1 if bet > 0 else 0))
            continue
        t = (mu - bet * sig / gam) / dlt
        if gam > 0:
            out.append(("ind", math.floor(t), False))
        else:
            out.append(("ind", math.ceil(t) - 1, True))
    return out


def fold_bias(bias, delta):
    """Dense channels: delta*S + b > 0 becomes S > floor(-b/delta)."""
    dlt = _frac(delta)
    return [("ind", math.floor(-_frac(b) / dlt), False) for b in bias]


def _layer(codes, folds=None, name="", skip_from=None, decision=None,
           compare_theta=None):
    """LayerProgram of ternary codes (conv [out, in, kh, kw], dense [in,
    out]) and one fold per channel, ("ind", theta, flip) or ("const", bit),
    by default ("ind", 0, False). A constant channel carries no entries.
    Outside a compare decision, a channel without codes or skip bit becomes
    constant: its sum S is identically 0."""
    rows = codes if codes.ndim == 4 else np.ascontiguousarray(codes.T)
    folds = folds or [("ind", 0, False)] * len(rows)
    const = np.array([f[1] if f[0] == "const" else -1 for f in folds],
                     dtype=np.int8)
    theta = [0 if f[0] == "const" else f[1] for f in folds]
    flip = np.array([f[0] == "ind" and f[2] for f in folds], dtype=bool)
    if (const >= 0).any():
        rows = rows * (const < 0).reshape((-1,) + (1,) * (rows.ndim - 1))
    # The +1 and the -1 positions, each in C order, merged into the P and N
    # lists by one stable sort.
    p, n = np.nonzero(rows > 0), np.nonzero(rows < 0)
    lists = np.concatenate([2 * p[0], 2 * n[0] + 1])
    entries = np.concatenate([np.stack(p[1:], axis=1), np.stack(
        n[1:], axis=1)])[np.argsort(lists, kind="stable")]
    offsets = np.zeros(2 * len(rows) + 1, dtype=np.intp)
    np.cumsum(np.bincount(lists, minlength=2 * len(rows)), out=offsets[1:])
    if skip_from is None and decision != "compare":
        for c in np.flatnonzero((offsets[2::2] == offsets[:-1:2])
                                & (const < 0)):
            const[c] = (0 > theta[c]) ^ flip[c]
            theta[c], flip[c] = 0, False
    return LayerProgram(name, "conv" if rows.ndim == 4 else "dense",
                        rows.shape[1], rows.shape[2:] or None, entries,
                        offsets, theta, flip, const, skip_from, decision,
                        compare_theta)


def lower_layer(ternary, bn=None, bias=None, name="", skip_from=None):
    """LayerProgram of one ternary layer, its batchnorm or bias folded
    into the thresholds.

    Conv codes are [out_ch, in_ch, kh, kw]; dense codes are [in, out]
    (channel c is column c). skip_from names the layer whose output bits
    also join the sums (the residual skip).
    """
    folds = None  # no norm to fold
    if bn is not None:
        folds = fold_batchnorm(bn, ternary.delta)
    elif bias is not None:
        folds = fold_bias(bias, ternary.delta)
    return _layer(ternary.codes, folds, name, skip_from)


def fold_output_pair(ternary, bias, mode="threshold", threshold=0.505):
    """Fold the 2-channel output into one channel, or refuse.

    Requires the columns to be exact elementwise negations. The folded
    channel fires "real": with antisymmetric rows the logit difference is
    2*delta*S_real + (b1 - b0), compared >= log(t/(1-t)) in threshold mode
    or > 0 in argmax mode. Returns (ChannelProgram | None).
    """
    codes = ternary.codes
    if codes.ndim != 2 or codes.shape[1] != 2:
        raise ValueError("output fold expects a dense [in, 2] layer")
    if not np.array_equal(codes[:, 1], -codes[:, 0]):
        return None
    if mode == "threshold" and not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if mode not in ("threshold", "argmax"):
        raise ValueError(f"unknown output fold mode {mode!r}")
    theta = _compare_theta(ternary, bias, mode, threshold, scale=2)
    return _layer(codes[:, 1:], [("ind", theta, False)]).channels[0]


def _compare_theta(ternary, bias, mode, threshold, scale=1):
    """Integer theta of the decision I(S > theta) on S = S1 - S0, or on the
    real-class sum S of an antisymmetric pair folded with scale=2.

    Threshold mode: label = [scale*delta*S + db >= level], that is
    S > ceil((level - db) / (scale*delta)) - 1. Argmax mode: label =
    [scale*delta*S + db > 0]; ties resolve to random, like argmax picking
    the first (random) class."""
    dlt = scale * _frac(ternary.delta)
    db = _frac(bias[1]) - _frac(bias[0])
    if mode == "threshold":
        level = _frac(math.log(threshold / (1.0 - threshold)))
        return math.ceil((level - db) / dlt) - 1
    return math.floor(-db / dlt)


def lower_model(model: Model) -> BooleanProgram:
    """Compile a full-stage model into a BooleanProgram."""
    if model.stage != "full":
        raise ValueError("lowering requires a fully quantized (full-stage) model")

    def tern(name):
        return extract_ternary(model.weights[name], model.delta_of(name))

    specs = layer_specs(model.cfg)
    # spec.norm, "bn" or "bias", names lower_layer's norm argument
    layers = [lower_layer(tern(spec.name), name=spec.name,
                          skip_from=spec.skip_from,
                          **{spec.norm: model.norms[spec.name]})
              for spec in specs[:-1]]
    warnings = []

    # The output pair's fold or compare decision, on the last spec.
    out = specs[-1]
    out_t, out_b = tern(out.name), model.norms[out.name]
    thr = model.cfg.decision_threshold
    folded = fold_output_pair(out_t, out_b, threshold=thr)
    if folded is not None:
        layers.append(LayerProgram.from_channels(
            out.name, out.kind, out.in_width, out.kernel, [folded],
            decision="folded"))
    else:
        warnings.append("output rows are not antisymmetric; emitting "
                        "both channels with a compare decision")
        layers.append(_layer(
            out_t.codes, name=out.name, decision="compare",
            compare_theta=_compare_theta(out_t, out_b, "threshold", thr)))
    return BooleanProgram(group_size=model.cfg.group_size, layers=layers,
                          warnings=warnings)


# ---------------------------------------------------------------- execution

def _codes(layer, reach=None):
    """[channels, in_width, *taps] float32 array of the layer's P (+1) and
    N (-1) lists. A conv layer's taps are the live block of half-extents
    reach (nn._live_taps) of its kernel; entries on the other taps only
    read padding and are left out."""
    entries, sizes = layer.entries, np.diff(layer.offsets)
    dims = (layer.in_width,) + tuple(layer.kernel or ())
    outside = len(entries) and (entries.min() < 0 or
                                (entries.max(axis=0) >= dims).any())
    if entries.shape[1] != len(dims) or outside:
        raise ValueError(f"{layer.name}: index outside the layer input")
    lists = np.arange(len(sizes))  # P lists are even (+1), N lists odd (-1)
    rows = np.repeat(lists // 2, sizes)
    signs = np.repeat(np.where(lists % 2, -1, 1).astype(np.int8), sizes)
    if reach is not None:
        first = [k // 2 - r for k, r in zip(layer.kernel, reach)]
        taps = entries[:, 1:]
        live = ((taps >= first) & (taps <= [f + 2 * r for f, r in
                                            zip(first, reach)])).all(axis=1)
        entries, rows, signs = entries[live], rows[live], signs[live]
        if len(entries):  # first exceeds int64 only if no entry is live
            entries[:, 1:] -= first
        dims = (layer.in_width,) + tuple(2 * r + 1 for r in reach)
    k = np.zeros((len(layer.flip),) + dims, dtype=np.float32)
    k[(rows,) + tuple(entries.T)] = signs
    return k


def _compile(prog):
    """ExactLayer list for run_layers, with the table route's tables
    (model.table_route); checks the layer wiring on the way
    and raises ValueError at the first layer that does not fit, its
    position in the program as the error's layer_index. Layers after a
    compare decision are not run."""
    shape = (16, prog.group_size, len(INPUT_CHANNEL_NAMES))
    shapes = {}  # layer name -> output shape, for skip sources
    out = []
    for i, layer in enumerate(prog.layers):
        try:
            el, shape = _compile_layer(layer, shape, shapes)
        except ValueError as e:
            e.layer_index = i
            raise
        out.append(el)
        if layer.decision == "compare":
            break
        shapes[layer.name] = shape
    if not out or out[-1].decision is None:
        raise ValueError("program has no decision layer")
    return table_route(out)


def _compile_layer(layer, shape, shapes):
    """(ExactLayer, output shape) of one layer on an input of shape,
    shapes holding the output shape of each earlier layer. Its GEMM matrix
    comes from the layer's P and N lists (_codes), its thresholds from the
    program's folds."""
    if layer.kind == "conv":
        if len(shape) != 3 or shape[2] != layer.in_width:
            raise ValueError(f"{layer.name}: expected {layer.in_width} "
                             f"input channels, got shape {shape}")
        reach, _ = nn._live_taps(*nn._same_pad(*layer.kernel), *shape[:2])
        codes = _codes(layer, reach)
    else:
        if math.prod(shape) != layer.in_width:
            raise ValueError(f"{layer.name}: expected input width "
                             f"{layer.in_width}, got {math.prod(shape)}")
        codes = _codes(layer).T  # dense indices are in [C, 16, g] order
    compare = layer.decision == "compare"
    if compare and len(layer.flip) != 2:
        raise ValueError(f"{layer.name}: a compare decision takes 2 "
                         f"channels, got {len(layer.flip)}")
    reach, kmat, shape = route_kernel(codes, shape)
    skip = int(layer.skip_from is not None)
    if skip and shapes.get(layer.skip_from) != shape:
        raise ValueError(f"{layer.name}: skip source {layer.skip_from!r} "
                         f"has no output of shape {shape}")
    fan_in = skip + int(layer.fan_in.max(initial=0))
    nn.check_f32_exact(layer.name, fan_in)
    lo, hi = sum_range(kmat, skip, compare)
    # Each theta clamped into [lo - 1, hi], which changes no bit there. A
    # constant channel gets lo - 1 and the first that gives its constant; a
    # compare decision is one indicator, on S1 - S0.
    theta, const = layer.theta, layer.const.tolist()
    first = np.where(layer.const >= 0, layer.const == 0, layer.flip)
    if compare:
        theta, const, first = [layer.compare_theta], [-1], np.zeros(1, bool)
    t = [lo_c - 1 if k >= 0 else min(max(th, lo_c - 1), hi_c)
         for th, k, lo_c, hi_c in zip(theta, const, lo.tolist(), hi.tolist())]
    return ExactLayer(layer.name, layer.skip_from, reach, kmat, fan_in, lo,
                      hi, np.array(t, dtype=np.float32), first,
                      layer.decision), shape


def _compiled_layers(prog):
    """The program's compiled layers and their tables, rebuilt whenever
    its content changed since they were built (a layer's arrays may be
    edited in place)."""
    fields = prog.group_size, [lp._fields() for lp in prog.layers]
    arrays = [a for lp in prog.layers for a in lp._arrays()]
    return content_cached(prog, "_compiled", fields, arrays,
                          lambda: _compile(prog))


def run_program(prog: BooleanProgram, bits, return_planes=False):
    """Evaluate the program on [N,4,16,g] (or single [4,16,g]) bit inputs,
    run_layers over its compiled layers. Returns labels (uint8), plus named
    intermediate bit planes when requested."""
    layers = _compiled_layers(prog)
    bits = np.asarray(bits)
    single = bits.ndim == 3
    labels, planes, d = run_layers(layers, check_bits(
        bits[None] if single else bits, prog.group_size), return_planes)
    if single:
        labels = labels[0]
    if return_planes:
        planes = named_planes(planes)
        if d is not None:
            planes.append((layers[-1].name + ".sum_diff", d.astype(np.int32)))
        return labels, planes
    return labels


# -------------------------------------------------------------- equivalence

@dataclass
class VerifyReport:
    passed: bool
    trials_run: int
    # channels proven equal to the model's over their whole reachable range
    exhaustive_channels: int
    total_channels: int  # indicator channels; a compare decision is not one
    counterexample: dict | None = None


_STRUCTURE = ("name", "kind", "in_width", "kernel", "channels", "decision",
              "skip")


def structure_mismatch(prog, specs):
    """Counterexample naming the first program layer that is not the layer
    table's, or None. Compared: name, kind, input width, kernel, channel
    count, a decision on the last layer only, and the source of any skip
    the program takes. A dropped skip is left to the per-channel proof,
    which shows the skip bit in its counterexample."""
    for i, (lp, spec) in enumerate(itertools.zip_longest(prog.layers, specs)):
        if lp is None or spec is None:
            return {"layer": (lp or spec).name, "program": lp and lp.name,
                    "model": spec and spec.name}
        got = (lp.name, lp.kind, lp.in_width, lp.kernel, len(lp.channels),
               lp.decision is not None, lp.skip_from)
        want = (spec.name, spec.kind, spec.in_width, spec.kernel,
                1 if lp.decision == "folded" else spec.out_width,
                i == len(specs) - 1, spec.skip_from)
        if got[:-1] != want[:-1] or lp.skip_from not in (None, spec.skip_from):
            return {"layer": lp.name, "program": dict(zip(_STRUCTURE, got)),
                    "model": dict(zip(_STRUCTURE, want))}
    return None


def _prove(prog, model, width):
    """(channels proven, counterexample | None): each indicator that
    run_program runs, from the program's compiled layers, against the
    model's from exact_layers over the whole range [lo, hi] the model's
    integer sum can reach, in O(1) per channel from the switch points.

    Structure first: each layer's skip bit must be the model's; a folded
    output also needs antisymmetric model columns, so that the model decides
    at D = S1 - S0 = 2S of the program's sum S, and 2S > t iff S > floor(t/2).
    Each channel's GEMM column must be the model's, except where both
    channels are the same constant over their own sum ranges: t at lo - 1
    or at hi. The program's constant is then read at the model's range.
    Two indicators S > t, each xor'd with its first, agree on every integer
    of [lo, hi] iff, with t in [lo - 1, hi], they agree at lo and at hi and,
    where they change over it, switch at the same point. A channel with
    hi - lo <= width is then also evaluated at every integer of [lo, hi]
    against exact_predicate itself, which checks the switch points too.
    Channels are proven in order up to the first mismatch."""
    proven = 0
    for layer, cl, el, spec in zip(prog.layers, _compiled_layers(prog),
                                   exact_layers(model),
                                   layer_specs(model.cfg)):
        kmat, lo, hi, t = el.kmat, el.lo, el.hi, el.t.astype(np.int64)
        if cl.decision == "folded":
            if not np.array_equal(kmat[:, 0], -kmat[:, 1]):
                return proven, {"layer": cl.name, "channel": 0,
                                "reason": "the model's output columns are "
                                          "not negations of each other"}
            kmat, lo, hi, t = kmat[:, 1:], lo // 2, hi // 2, t // 2
        if cl.skip_from != el.skip_from:
            return proven, {"layer": cl.name, "channel": 0,
                            "support": ["skip"], "program": cl.skip_from,
                            "model": el.skip_from}
        theta = cl.t.astype(np.int64)  # exact: |t| < 2**24
        below, above = theta < cl.lo, theta >= cl.hi
        const = (below | above) & ((t < lo) | (t >= hi))
        wrong = np.flatnonzero((cl.kmat != kmat).any(axis=0) & ~const)
        if len(wrong):
            c = int(wrong[0])
            codes = extract_ternary(model.weights[cl.name],
                                    model.delta_of(cl.name)).codes
            want = (codes[c] if codes.ndim == 4 else
                    codes[:, c + (cl.decision == "folded")])
            return proven + c, {
                "layer": cl.name, "channel": c, "support": list(_tuples(
                    np.argwhere(_codes(layer)[c] != want)))}
        theta = np.where(below, lo - 1, np.where(above, hi, theta))
        flip = cl.first
        got_lo, got_hi = (lo > theta) ^ flip, (hi > theta) ^ flip
        want_lo, want_hi = (lo > t) ^ el.first, (hi > t) ^ el.first
        bad = np.flatnonzero((got_lo != want_lo) | (got_hi != want_hi)
                             | ((got_lo != got_hi) & (theta != t)))
        if len(bad):
            c = int(bad[0])
            # a sum where they differ: an end, or just past the lower switch
            s = min(theta[c], t[c]) + 1
            if got_lo[c] != want_lo[c]:
                s = lo[c]
            elif got_hi[c] != want_hi[c]:
                s = hi[c]
            return proven + c, {
                "layer": cl.name, "channel": c, "sum": int(s),
                "program_bit": int((s > theta[c]) ^ flip[c]),
                "model_bit": int((s > t[c]) ^ el.first[c])}
        if cl.decision == "compare":
            continue
        narrow = np.flatnonzero(hi - lo <= width).tolist()
        pred = exact_predicate(model, spec) if narrow else None
        scale = 2 if cl.decision == "folded" else 1  # the model's D = 2S
        for c in narrow:
            for s in range(int(lo[c]), int(hi[c]) + 1):
                got = int((s > theta[c]) ^ flip[c])
                want = int(pred(c, scale * s))
                if got != want:
                    return proven + c, {
                        "layer": cl.name, "channel": c, "sum": s,
                        "program_bit": got, "model_bit": want}
        proven += len(theta)
    return proven, None


def verify_equivalence(prog: BooleanProgram, model: Model, trials=10_000,
                       exhaustive_width=9, seed=0) -> VerifyReport:
    """Layer structure, then randomized whole-network trials, then a
    complete per-channel proof with a sweep of the narrow channels.

    The program's layers must be the model's layer table. Random inputs are
    compared end to end (program labels and every intermediate plane
    against the exact model evaluation). Every channel that run_program
    runs, its compiled GEMM column and threshold, is then proven against
    the model's switch points over its whole reachable sum range (_prove).
    A channel whose live support (its P and N entries on live taps, and the
    skip bit) is at most exhaustive_width bits is also checked at every sum
    that support reaches against the rational predicate itself.
    """
    specs = layer_specs(model.cfg)
    total = sum(len(lp.channels) for lp in prog.layers
                if lp.decision != "compare")
    mismatch = structure_mismatch(prog, specs)
    if mismatch is not None:
        return VerifyReport(passed=False, trials_run=0, exhaustive_channels=0,
                            total_channels=total, counterexample=mismatch)

    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        nb = min(2048, trials - done)
        bits = rng.integers(0, 2, size=(nb, 4, 16, prog.group_size),
                            dtype=np.uint8)
        prog_labels, prog_planes = run_program(prog, bits, return_planes=True)
        model_labels, _, model_planes = exact_bit_forward(model, bits,
                                                          return_planes=True)
        # Each named intermediate plane must match, not just the labels:
        # exactness is layerwise, and a masked divergence is still a bug.
        model_by_name = dict(model_planes)
        diffs = [(name, (plane != model_by_name[name]).reshape(
                     nb, -1).any(axis=1))
                 for name, plane in prog_planes if name in model_by_name]
        diff = prog_labels != model_labels
        for _, d in diffs:
            diff |= d
        if diff.any():
            i = int(np.flatnonzero(diff)[0])
            return VerifyReport(
                passed=False, trials_run=done + nb, exhaustive_channels=0,
                total_channels=total,
                counterexample={"input": bits[i], "trial": done + i,
                                "first_divergence": next(
                                    (name for name, d in diffs if d[i]),
                                    "output"),
                                "program_label": int(prog_labels[i]),
                                "model_label": int(model_labels[i])})
        done += nb

    proven, ce = _prove(prog, model, exhaustive_width)
    return VerifyReport(passed=ce is None, trials_run=done,
                        exhaustive_channels=proven, total_channels=total,
                        counterexample=ce)


# ------------------------------------------------------------- expressions

def synthesize_expression(cp: ChannelProgram, names=None):
    """Minimal two-level formula of one channel, in closed form: "0", "1",
    or its products joined by " | ", each product's literals by " & ", a
    negated literal written ~name.

    Take each P entry as a literal and each N entry negated, both swapped
    under flip: the channel fires iff at least k of its n literals hold,
    k = theta + |N| + 1, or |P| - theta under flip. That function is
    unate, so its minimum sum of products is unique: every k-subset of the
    literals, each one a prime implicant and essential."""
    if cp.const is not None:
        return str(cp.const)
    n, npos = cp.fan_in, len(cp.p)
    if n > MAX_LITERALS:
        raise ValueError(f"fan-in {n} exceeds the {MAX_LITERALS}-literal limit")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError("need one name per P then N entry")
    k = npos - cp.theta if cp.flip else cp.theta + n - npos + 1
    if k > n:
        return "0"
    if k <= 0:
        return "1"
    literals = [(v, (i < npos) != cp.flip) for i, v in enumerate(names)]
    return " | ".join(
        " & ".join(("" if pol else "~") + v for v, pol in term)
        for term in sorted(itertools.combinations(literals, k)))


def conv0_literal_names(cp: ChannelProgram):
    """Input-channel names for a 1x1 first-layer channel's P then N entries."""
    return [INPUT_CHANNEL_NAMES[c] for (c, _, _) in list(cp.p) + list(cp.n)]


def program_expressions(prog: BooleanProgram):
    """[(layer, channel, formula)] for every small-fan-in live channel.

    Layers whose sums take a skip bit are left out: a formula over the
    channel's P and N inputs alone is not its function."""
    out = []
    for layer in prog.layers:
        if layer.decision == "compare" or layer.skip_from is not None:
            continue
        for ci in np.flatnonzero((layer.const < 0) & (
                layer.fan_in <= MAX_LITERALS)).tolist():
            cp = layer.channels[ci]
            if layer.name == "conv0" and layer.kernel == (1, 1):
                names = conv0_literal_names(cp)
            else:
                names = None
            out.append((layer.name, ci,
                        synthesize_expression(cp, names=names)))
    return out


# -------------------------------------------------------------- persistence

def _fmt_lists(layer):
    """The text of each of the layer's index lists, in .bprog order."""
    if layer.entries.shape[1] == 3:
        items = [f"({a},{b},{c})" for a, b, c in layer.entries.tolist()]
    else:  # each distinct index is formatted once
        values, at = np.unique(layer.entries[:, 0], return_inverse=True)
        items = np.array(list(map(str, values.tolist())),
                         dtype=object)[at].tolist()
    off = layer.offsets.tolist()
    return ["[" + ",".join(items[a:b]) + "]" for a, b in zip(off, off[1:])]


def save_program(prog: BooleanProgram, path):
    lines = [f"BPROG v1 layout=4x16x{prog.group_size} layers={len(prog.layers)}"]
    for w in prog.warnings:
        lines.append(f"# warning: {w}")
    for layer in prog.layers:
        head = (f"LAYER name={layer.name} kind={layer.kind} "
                f"in={layer.in_width} channels={len(layer.channels)}")
        if layer.kernel:
            head += f" kernel={layer.kernel[0]}x{layer.kernel[1]}"
        if layer.skip_from:
            head += f" skip={layer.skip_from}"
        if layer.decision:
            head += f" decision={layer.decision}"
        if layer.compare_theta is not None:
            head += f" compare_theta={layer.compare_theta}"
        lines.append(head)
        lists = _fmt_lists(layer)
        for ci, (theta, flip, const) in enumerate(zip(
                layer.theta, layer.flip.tolist(), layer.const.tolist())):
            p, n = lists[2 * ci:2 * ci + 2]
            if const >= 0:
                lines.append(f"IND ch={ci} const={const}")
            elif layer.decision == "compare":
                lines.append(f"ACC ch={ci} P={p} N={n}")
            else:
                lines.append(f"IND ch={ci} theta={theta} flip={int(flip)} "
                             f"P={p} N={n}")
    lines.append("EXPR")
    for lname, ci, formula in program_expressions(prog):
        lines.append(f"{lname} ch={ci}: {formula}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


_COUNT = re.compile(r"[0-9]+")
_INTEGER = re.compile(r"-?[0-9]+")
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _number(text, key, signed=False):
    """int of a field's ASCII decimal digits; only a signed field may
    start with '-'."""
    if (_INTEGER if signed else _COUNT).fullmatch(text) is None:
        raise ValueError(f"{key}={text} is not "
                         f"{'an integer' if signed else 'a count'} in ASCII "
                         f"digits")
    return int(text)


def _index_list(text, kind):
    """int64 [entries, 1 or 3] of one index list (a conv entry is
    (in_ch, k1, k2)); a number past the int64 range saturates, outside
    every layer input.

    The list is checked on its skeleton, the text without its ASCII digits
    (other digits stay in it): "[" and "]" around the entries, with no
    digit outside them, a comma between two entries and around each conv
    entry "(,,)", with no digit outside it either. Then no number may be
    empty: np.fromstring stops at an empty one, so it must read as many
    numbers as the skeleton holds."""
    skeleton = text.translate(_NO_DIGITS)
    if kind == "dense":
        dims, body = 1, text[1:-1]
        count = len(skeleton) - 1 if body else 0
        ok = (skeleton == "[" + "," * (len(skeleton) - 2) + "]"
              and text.startswith("[") and text.endswith("]"))
    else:
        entries = (len(skeleton) - 1) // 5
        dims, count = 3, 3 * entries
        ends = ("[(", ")]") if entries else ("[]", "[]")
        ok = (skeleton == "[" + ",".join(["(,,)"] * entries) + "]"
              and text.startswith(ends[0]) and text.endswith(ends[1])
              and text.count("),(") == max(entries - 1, 0))
        body = text[1:-1].replace("(", "").replace(")", "")
    if ok:
        try:
            values = np.fromstring(body, dtype=np.int64, sep=",")
            ok = len(values) == count
        # the text after an empty number is left over: numpy >= 2 raises,
        # numpy 1 warns and returns the numbers before it
        except (ValueError, DeprecationWarning):
            ok = False
    if not ok:
        raise ValueError(f"malformed index list {text!r}")
    return values.reshape(-1, dims)


def _listed_twice(p, n, kind):
    """The fault of a channel whose P and N lists hold an entry twice, the
    first one in (k2, k1, in_ch) order, or None."""
    both = np.concatenate([p, n])
    both = both[np.lexsort(both.T)]  # a repeated entry lies next to itself
    same = np.flatnonzero((both[1:] == both[:-1]).all(axis=1))
    if not len(same):
        return None
    entry = both[same[0]]
    if all((e == entry).all(axis=1).any() for e in (p, n)):
        return "P and N must be disjoint"
    text = ",".join(map(str, entry.tolist()))
    return f"index {text if kind == 'dense' else f'({text})'} listed twice"


def _first_listed_twice(lp):
    """(channel, fault) of the layer's first channel whose P and N lists
    hold an entry twice, or None. One sort of all the layer's entries,
    keyed by channel and entry; the key is packed into an int64 only where
    it cannot overflow, and otherwise each channel is checked alone."""
    entries, channels = lp.entries, len(lp.flip)
    sizes = [int(v) + 1 for v in entries.max(axis=0, initial=0)]
    candidates = range(channels)
    # entries are >= 0, so keys stay below the product, and each size (a
    # factor of it) fits an int64 multiplier
    if channels * math.prod(sizes) < 2**63:
        key = np.repeat(np.arange(channels, dtype=np.int64), lp.fan_in)
        for column, size in zip(entries.T, sizes):
            key *= size
            key += column
        key.sort(kind="stable")  # P and N lists are sorted runs, often
        same = np.flatnonzero(key[1:] == key[:-1])
        candidates = [int(key[same[0]] // math.prod(sizes))] if len(same) \
            else []
    for c in candidates:
        lo, mid, hi = lp.offsets[2 * c:2 * c + 3]
        fault = _listed_twice(entries[lo:mid], entries[mid:hi], lp.kind)
        if fault is not None:
            return c, fault
    return None


def _parse_kv(parts):
    """{key: value} of a line's key=value fields, each key at most once."""
    kv = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {part!r}")
        if key in kv:
            raise ValueError(f"{key}= appears twice")
        kv[key] = value
    return kv


def _check_keys(kv, allowed, line):
    """Raises at the first key of kv that is not one of allowed."""
    for key in kv:
        if key not in allowed:
            raise ValueError(f"{line} takes no {key}=")


def _need(kv, key):
    if key not in kv:
        raise ValueError(f"missing {key}=")
    return kv[key]


def _bit(text, key):
    if text not in ("0", "1"):
        raise ValueError(f"{key}={text} is not 0 or 1")
    return int(text)


def _header_line(ln):
    """(empty BooleanProgram, declared layer count) of the BPROG line."""
    header = _parse_kv(ln.split()[2:])
    _check_keys(header, ("layout", "layers"), "the BPROG line")
    layout = _need(header, "layout")
    dims = layout.split("x")
    if dims[:2] != ["4", "16"] or len(dims) != 3:
        raise ValueError(f"unsupported layout {layout}")
    return (BooleanProgram(group_size=_number(dims[2], "layout group size"),
                           layers=[]),
            _number(_need(header, "layers"), "layers"))


def _channel_line(kv, line_kind, layer_kind, index):
    """ChannelProgram of the IND or ACC line of channel index of its layer,
    its P and N as _index_list gives them; an entry listed twice is found
    when the layer is complete (_first_listed_twice)."""
    const = line_kind == "IND" and "const" in kv
    if const:
        _check_keys(kv, ("ch", "const"), "an IND line with const=")
    else:
        _check_keys(kv, ("ch", "theta", "flip", "P", "N")
                    if line_kind == "IND" else ("ch", "P", "N"),
                    f"an {line_kind} line")
    if _need(kv, "ch") != str(index):
        raise ValueError(f"ch={kv['ch']} but the line is channel {index} of "
                         f"its layer")
    if const:
        return ChannelProgram((), (), const=_bit(kv["const"], "const"))
    p, n = (_index_list(_need(kv, key), layer_kind) for key in ("P", "N"))
    if line_kind == "ACC":
        return ChannelProgram(p, n)
    theta = _number(_need(kv, "theta"), "theta", signed=True)
    return ChannelProgram(p, n, theta, bool(_bit(_need(kv, "flip"), "flip")))


def _layer_line(kv, names):
    """LayerProgram.from_channels arguments of a LAYER line after layers of
    the given names, and the channel count it declares."""
    _check_keys(kv, ("name", "kind", "in", "channels", "kernel", "skip",
                     "decision", "compare_theta"), "a LAYER line")
    kernel = None
    if "kernel" in kv:
        kh, _, kw = kv["kernel"].partition("x")
        kernel = (_number(kh, "kernel"), _number(kw, "kernel"))
    decision, skip = kv.get("decision"), kv.get("skip")
    layer_kind = _need(kv, "kind")
    if layer_kind not in ("conv", "dense"):
        raise ValueError(f"kind={layer_kind} is not conv or dense")
    if decision not in (None, "folded", "compare"):
        raise ValueError(f"decision={decision} is not folded or compare")
    if decision != "compare" and "compare_theta" in kv:
        raise ValueError("compare_theta= needs decision=compare")
    if layer_kind == "conv" and kernel is None:
        raise ValueError("missing kernel=")
    if layer_kind == "dense" and kernel is not None:
        raise ValueError("a dense layer takes no kernel=")
    if skip is not None and skip not in names:
        raise ValueError(f"skip={skip} names no earlier layer")
    fields = dict(
        name=_need(kv, "name"), kind=layer_kind,
        in_width=_number(_need(kv, "in"), "in"), kernel=kernel, channels=[],
        skip_from=skip, decision=decision,
        compare_theta=_number(_need(kv, "compare_theta"), "compare_theta",
                              signed=True)
        if decision == "compare" else None)
    return fields, _number(_need(kv, "channels"), "channels")


def load_program(path) -> BooleanProgram:
    """Reads a .bprog file one line at a time; a line that is not UTF-8 or
    is malformed (a key its kind does not take, a key twice, a ch= that is
    not the channel's index), a header count that does not match the
    body, a decision anywhere but on the last layer, or a layer that does
    not fit its input (an index outside it, a skip source of another
    shape) raises ValueError naming the file and line. An index list is
    checked on its own line (_index_list); an entry listed twice in one
    channel is found by one sort per layer when the layer's lines are all
    read, or when a later line of it is faulty, so that it is named before
    a fault on any later line. The wiring is checked by compiling the
    program for run_program, which then reuses it."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()  # the newlines of text mode
    if not lines or not lines[0].startswith(b"BPROG v1 "):
        raise ValueError(f"{path}: not a BPROG v1 file")
    # (line number, from_channels arguments, declared channels, line number
    # of each channel) of each LAYER line, and the layers built from them
    heads, layers = [], []

    def close_layer():
        """Builds the last layer read, unless it is built; raises at its
        first channel line that lists an entry twice."""
        if len(layers) < len(heads):
            _, fields, _, at = heads[-1]
            layers.append(LayerProgram.from_channels(**fields))
            fault = _first_listed_twice(layers[-1])
            if fault is not None:
                raise ValueError(f"{path}:{at[fault[0]]}: {fault[1]}")

    for lineno, raw in enumerate(lines, start=1):
        try:
            ln = raw.decode("utf-8")
            if lineno == 1:
                prog, n_layers = _header_line(ln)
                continue
            if not ln or ln.startswith("#"):
                if ln.startswith("# warning: "):
                    prog.warnings.append(ln[len("# warning: "):])
                continue
            if ln == "EXPR":
                break
            kind, _, rest = ln.partition(" ")
            kv = _parse_kv(rest.split(" ")) if rest else {}
            if kind == "LAYER":
                head = _layer_line(kv, [fields["name"]
                                        for _, fields, _, _ in heads])
            elif kind in ("IND", "ACC"):
                if not heads:
                    raise ValueError("channel line before any LAYER")
                layer = heads[-1][1]
                channel = _channel_line(kv, kind, layer["kind"],
                                        len(layer["channels"]))
            else:
                raise ValueError(f"unknown line kind {kind!r}")
        except ValueError as e:
            close_layer()  # a fault on an earlier line comes first
            raise ValueError(f"{path}:{lineno}: {e}") from None
        if kind == "LAYER":
            close_layer()
            heads.append((lineno, *head, []))
        else:
            heads[-1][1]["channels"].append(channel)
            heads[-1][3].append(lineno)
    close_layer()
    prog.layers = layers
    if not prog.layers:
        raise ValueError(f"{path}: no layers")
    if n_layers != len(prog.layers):
        raise ValueError(f"{path}:1: header has layers={n_layers} but the "
                         f"body has {len(prog.layers)} LAYER lines")
    for (lineno, _, declared, _), lp in zip(heads, prog.layers):
        if declared != len(lp.channels):
            raise ValueError(f"{path}:{lineno}: {lp.name} has "
                             f"channels={declared} but {len(lp.channels)} "
                             f"channel lines")
        if (lp.decision is not None) != (lp is prog.layers[-1]):
            raise ValueError(f"{path}:{lineno}: {lp.name}: the last layer, "
                             f"and only it, takes a decision=")
    try:
        _compiled_layers(prog)
    except ValueError as e:
        raise ValueError(f"{path}:{heads[e.layer_index][0]}: {e}") from None
    return prog
