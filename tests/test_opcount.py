"""Operation accounting tests against the published layer and total figures."""

import numpy as np
import pytest

from ndlite.lowering import (BooleanProgram, ChannelProgram, LayerProgram,
                             lower_model)
from ndlite.model import ModelConfig, build_model, layer_specs
from ndlite.opcount import (OpCounts, count_dense_layer,
                            count_lightweight_layer, count_model, format_csv,
                            format_table, op_ratio)
from ndlite.quant import extract_ternary

from test_model import randomized_quantized_model


# ------------------------------------------------------------------ fixture

def _spread(total, live, width, taps=None):
    """live channels holding `total` nonzeros, then width-live dead ones; a
    conv channel's entries are the first of its (in_ch, k1, k2) taps."""
    base, extra = divmod(total, live)
    sizes = [base + (1 if i < extra else 0) for i in range(live)]
    chans = [ChannelProgram(p=tuple(range(k)) if taps is None else tuple(zip(
        *(a.tolist() for a in np.unravel_index(np.arange(k), taps)))), n=())
             for k in sizes]
    chans += [ChannelProgram(p=(), n=(), const=0)] * (width - live)
    return chans


def _fan_in(chans):
    return [cp.fan_in for cp in chans]


def table4_fixture_program():
    """The published sparsity profile: conv0 8 nonzeros over 4 live
    channels, residual convs 671 + 2081 all-live, head 13877 nonzeros over
    99 of 128 channels, folded output with 64 nonzeros."""
    layers = [
        LayerProgram.from_channels("conv0", "conv", 4, (1, 1),
                                   _spread(8, 4, 4, (4, 1, 1))),
        LayerProgram.from_channels("res0.c1", "conv", 32, (3, 3),
                                   _spread(671, 32, 32, (32, 3, 3))),
        LayerProgram.from_channels("res0.c2", "conv", 32, (3, 3),
                                   _spread(2081, 32, 32, (32, 3, 3)),
                                   skip_from="conv0"),
        LayerProgram.from_channels("dense1", "dense", 4096, None,
                                   _spread(13000, 55, 64)),
        LayerProgram.from_channels("dense2", "dense", 64, None,
                                   _spread(877, 44, 64)),
        LayerProgram.from_channels(
            "out", "dense", 64, None,
            [ChannelProgram(p=tuple(range(64)), n=())], decision="folded"),
    ]
    return BooleanProgram(group_size=8, layers=layers)


# -------------------------------------------------------------- dense rules

def test_dense_layer_published_examples():
    specs = {s.name: s for s in layer_specs(ModelConfig())}
    c0 = count_dense_layer(specs["conv0"], 128)
    assert (c0.mults, c0.adds) == (16384, 12288)
    rc = count_dense_layer(specs["res0.c1"], 128)
    assert (rc.mults, rc.adds) == (1179648, 1175552)
    h = count_dense_layer(specs["dense1"]) + count_dense_layer(specs["dense2"])
    assert (h.mults, h.adds) == (266240, 266112)
    out = count_dense_layer(specs["out"])
    assert (out.mults, out.adds) == (128, 126)
    assert c0.bools == c0.indicators == 0


def test_dense_model_totals_and_breakdown():
    total, rows = count_model(ModelConfig())
    assert (total.mults, total.adds) == (2642048, 2629630)
    by_name = dict(rows)
    assert (by_name["conv0"].mults, by_name["conv0"].adds) == (16384, 12288)
    assert (by_name["residual"].mults, by_name["residual"].adds) == \
        (2359296, 2351104)
    assert (by_name["head"].mults, by_name["head"].adds) == (266240, 266112)
    assert (by_name["output"].mults, by_name["output"].adds) == (128, 126)
    assert total.bools == total.indicators == 0


def test_dense_model_instance_matches_config():
    cfg = ModelConfig(group_size=1, channels=8, dense_sizes=(16, 8))
    m = build_model(cfg, seed=0)
    t1, r1 = count_model(cfg)
    t2, r2 = count_model(m.cfg)
    assert t1 == t2 and r1 == r2
    for obj, name in ((m.weights, "dict"), (m, "Model")):
        with pytest.raises(TypeError, match=f"cannot count {name}"):
            count_model(obj)


def test_layer_shape_validation():
    with pytest.raises(ValueError):
        count_lightweight_layer([], 0)


# --------------------------------------------------------- lightweight rules

def test_lightweight_layer_rule():
    chans = [ChannelProgram(p=(0, 1), n=(2,)),        # nnz 3
             ChannelProgram(p=(), n=(), const=1),     # dead
             ChannelProgram(p=(4,), n=())]            # nnz 1
    c = count_lightweight_layer(_fan_in(chans), 10)
    assert (c.bools, c.adds, c.indicators) == (40, 20, 20)
    c = count_lightweight_layer(_fan_in(chans), 10, count_dead_indicators=True)
    assert c.indicators == 30
    assert c.mults == 0


def test_lightweight_published_layer_examples():
    conv0 = count_lightweight_layer(_fan_in(_spread(8, 4, 4)), 128)
    assert (conv0.bools, conv0.adds, conv0.indicators) == (1024, 512, 512)
    res = (count_lightweight_layer(_fan_in(_spread(671, 32, 32)), 128)
           + count_lightweight_layer(_fan_in(_spread(2081, 32, 32)), 128))
    assert (res.bools, res.adds, res.indicators) == (352256, 344064, 8192)
    out = count_lightweight_layer([64], 1)
    assert (out.bools, out.adds, out.indicators) == (64, 63, 1)


def test_fixture_program_totals_and_ratio():
    prog = table4_fixture_program()
    total, rows = count_model(prog, count_dead_indicators=True)
    assert (total.bools, total.adds, total.indicators) == (367221, 358417, 8833)
    assert total.mults == 0
    by_name = dict(rows)
    assert by_name["head"].indicators == 128
    assert by_name["head"].adds == 13778
    # self-consistent mode bills only the 99 live head indicators
    strict_total, _ = count_model(prog)
    assert strict_total.indicators == 8833 - 29
    dense_total, _ = count_model(ModelConfig())
    assert abs(op_ratio(total, dense_total) - 0.139) < 0.001


def test_empty_program_counts_zero():
    total, rows = count_model(BooleanProgram(group_size=8, layers=[]))
    assert total == OpCounts()
    assert all(c == OpCounts() for _, c in rows)


def test_lowered_program_counts_match_codes():
    m = randomized_quantized_model(9)
    prog = lower_model(m)
    total, rows = count_model(prog)
    assert total.mults == 0
    d = 16 * m.cfg.group_size
    conv0_nnz = int((extract_ternary(m.weights["conv0"], m.delta_of("conv0")).codes
                     != 0).sum())
    # constant channels shed their gathers, so counted bools never exceed
    # the raw nonzero count
    assert dict(rows)["conv0"].bools <= conv0_nnz * d
    live = int(np.count_nonzero(prog.layer("conv0").fan_in))
    assert dict(rows)["conv0"].indicators == live * d


def test_compare_mode_output_counts():
    m = randomized_quantized_model(2)  # non-antisymmetric rows: compare mode
    prog = lower_model(m)
    assert prog.layers[-1].decision == "compare"
    _, rows = count_model(prog)
    out = dict(rows)["output"]
    nnz = sum(len(c.p) + len(c.n) for c in prog.layers[-1].channels)
    assert out.indicators == 1
    assert out.bools == nnz
    live = sum(1 for c in prog.layers[-1].channels if len(c.p) + len(c.n))
    assert out.adds == nnz - live + 1


# ------------------------------------------------------------------ reports

def test_opcounts_arithmetic_and_validation():
    a = OpCounts(mults=1, adds=2)
    b = OpCounts(bools=3, indicators=4)
    assert (a + b).total == 10
    with pytest.raises(ValueError):
        OpCounts(mults=-1)


def test_table_and_csv_render():
    total, rows = count_model(ModelConfig())
    table = format_table(rows, total)
    lines = table.splitlines()
    assert lines[0].split() == ["component", "mults", "adds", "bools",
                                "indicators"]
    assert len(lines) == 6  # header + 4 components + total
    assert "2642048" in lines[-1]
    csv = format_csv(rows, total)
    assert csv.splitlines()[0] == "component,mults,adds,bools,indicators"
    assert csv.splitlines()[-1] == "total,2642048,2629630,0,0"
