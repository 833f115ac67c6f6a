"""Operation accounting for the dense network and the lowered program.

Dense layers cost weight_count multiplications and (weight_count - out_ch)
accumulation additions per output position; biases, batchnorm and
activations are free. Lowered channels cost one Boolean gather per nonzero
weight, nnz - 1 additions, and one indicator evaluation, all scaled by the
output feature dimension D (spatial positions for convs, 1 for dense).
Channels with no nonzero weights cost nothing; `count_dead_indicators`
also bills an indicator for those dead channels, reproducing published
head figures that counted every channel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace

from .lowering import BooleanProgram
from .model import LayerSpec, ModelConfig, layer_specs


@dataclass(frozen=True)
class OpCounts:
    """One count per column; these fields are the count columns of every
    sum, table and CSV."""
    mults: int = 0
    adds: int = 0
    bools: int = 0
    indicators: int = 0

    def __post_init__(self):
        for name, v in zip(_COLUMNS[1:], self):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")

    def __iter__(self):
        return iter(_counts_of(self))

    def __add__(self, other):
        return OpCounts(*map(operator.add, self, other))

    @property
    def total(self):
        return sum(self)


_COLUMNS = ("component", *(f.name for f in fields(OpCounts)))
_counts_of = operator.attrgetter(*_COLUMNS[1:])


def count_dense_layer(spec: LayerSpec, d=1) -> OpCounts:
    """Multiply/accumulate cost of one float layer of the layer table at d
    output positions; bias adds excluded."""
    wc = math.prod(spec.weight_shape)
    return OpCounts(mults=wc * d, adds=(wc - spec.out_width) * d)


def count_lightweight_layer(fan_in, d, count_dead_indicators=False) -> OpCounts:
    """Boolean/addition/indicator cost of one lowered layer whose channels
    have fan_in nonzero weights each (LayerProgram.fan_in)."""
    if d < 1:
        raise ValueError("d must be positive")
    bools, live = int(sum(fan_in)), sum(1 for f in fan_in if f)
    counted = len(fan_in) if count_dead_indicators else live
    return OpCounts(bools=bools * d, adds=(bools - live) * d,
                    indicators=counted * d)


def _component_of(layer_name):
    if layer_name.startswith("res"):
        return "residual"
    if layer_name.startswith("dense"):
        return "head"
    if layer_name == "out":
        return "output"
    return layer_name


def _by_component(counts):
    """[(component, OpCounts)] summed from (layer name, OpCounts) pairs."""
    rows = {"conv0": OpCounts(), "residual": OpCounts(), "head": OpCounts(),
            "output": OpCounts()}
    for name, cnt in counts:
        comp = _component_of(name)
        if comp not in rows:
            raise ValueError(f"layer {name!r} belongs to no component")
        rows[comp] = rows[comp] + cnt
    return list(rows.items())


def _dense_model_rows(cfg: ModelConfig):
    d_conv = 16 * cfg.group_size
    return _by_component(
        (s.name, count_dense_layer(s, d_conv if s.kind == "conv" else 1))
        for s in layer_specs(cfg))


def _program_rows(prog: BooleanProgram, count_dead_indicators):
    d_conv = 16 * prog.group_size
    counts = []
    for layer in prog.layers:
        d = d_conv if layer.kind == "conv" else 1
        cnt = count_lightweight_layer(layer.fan_in, d, count_dead_indicators)
        if layer.decision == "compare":
            # two raw accumulators, one difference add, one threshold gate
            cnt = replace(cnt, adds=cnt.adds + 1, indicators=1)
        counts.append((layer.name, cnt))
    return _by_component(counts)


def count_model(obj, count_dead_indicators=False):
    """(total OpCounts, [(component, OpCounts), ...]) for a model config
    or a lowered program."""
    if isinstance(obj, BooleanProgram):
        rows = _program_rows(obj, count_dead_indicators)
    elif isinstance(obj, ModelConfig):
        rows = _dense_model_rows(obj)
    else:
        raise TypeError(f"cannot count {type(obj).__name__}")
    return sum((cnt for _, cnt in rows), OpCounts()), rows


def op_ratio(light: OpCounts, dense: OpCounts):
    """Total lightweight operations relative to the dense network."""
    if dense.total == 0:
        raise ValueError("dense total is zero")
    return light.total / dense.total


def _text_rows(rows, total):
    """The header, then one row of strings per (component, OpCounts) row
    and for the total, if given."""
    if total is not None:
        rows = [*rows, ("total", total)]
    return [_COLUMNS] + [(name, *map(str, c)) for name, c in rows]


def format_table(rows, total=None):
    """Aligned text table over (component, OpCounts) rows: names left,
    counts right."""
    head, *body = _text_rows(rows, total)
    widths = [max(map(len, column)) for column in zip(head, *body)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths))]
    for name, *cells in body:
        lines.append("  ".join([name.ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(cells, widths[1:])]))
    return "\n".join(lines)


def format_csv(rows, total=None):
    return "\n".join(map(",".join, _text_rows(rows, total)))
