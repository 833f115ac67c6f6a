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

from dataclasses import dataclass

from .lowering import BooleanProgram
from .model import Model, ModelConfig, layer_specs


@dataclass(frozen=True)
class OpCounts:
    mults: int = 0
    adds: int = 0
    bools: int = 0
    indicators: int = 0

    def __post_init__(self):
        for name in ("mults", "adds", "bools", "indicators"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")

    def __add__(self, other):
        return OpCounts(self.mults + other.mults, self.adds + other.adds,
                        self.bools + other.bools,
                        self.indicators + other.indicators)

    @property
    def total(self):
        return self.mults + self.adds + self.bools + self.indicators


@dataclass(frozen=True)
class LayerShape:
    kind: str  # "conv" | "dense"
    in_ch: int
    out_ch: int
    kernel: tuple | None = None  # (kh, kw) for conv
    d: int = 1  # output feature dimension; 1 for dense

    def __post_init__(self):
        if self.kind not in ("conv", "dense"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv" and self.kernel is None:
            raise ValueError("conv shapes need a kernel")
        if self.in_ch < 1 or self.out_ch < 1 or self.d < 1:
            raise ValueError("in_ch, out_ch and d must be positive")

    @property
    def weight_count(self):
        k = self.kernel[0] * self.kernel[1] if self.kind == "conv" else 1
        return self.in_ch * self.out_ch * k


def count_dense_layer(shape: LayerShape) -> OpCounts:
    """Multiply/accumulate cost of one float layer; bias adds excluded."""
    wc = shape.weight_count
    return OpCounts(mults=wc * shape.d, adds=(wc - shape.out_ch) * shape.d)


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
        (s.name, count_dense_layer(LayerShape(
            s.kind, s.in_width, s.out_width, s.kernel,
            d_conv if s.kind == "conv" else 1)))
        for s in layer_specs(cfg))


def _program_rows(prog: BooleanProgram, count_dead_indicators):
    d_conv = 16 * prog.group_size
    counts = []
    for layer in prog.layers:
        d = d_conv if layer.kind == "conv" else 1
        if layer.decision == "compare":
            # two raw accumulators, one difference add, one threshold gate
            base = count_lightweight_layer(layer.fan_in, d)
            cnt = OpCounts(bools=base.bools, adds=base.adds + 1, indicators=1)
        else:
            cnt = count_lightweight_layer(layer.fan_in, d,
                                          count_dead_indicators)
        counts.append((layer.name, cnt))
    return _by_component(counts)


def count_model(obj, count_dead_indicators=False):
    """(total OpCounts, [(component, OpCounts), ...]) for a model, a model
    config, or a lowered program."""
    if isinstance(obj, BooleanProgram):
        rows = _program_rows(obj, count_dead_indicators)
    elif isinstance(obj, Model):
        rows = _dense_model_rows(obj.cfg)
    elif isinstance(obj, ModelConfig):
        rows = _dense_model_rows(obj)
    else:
        raise TypeError(f"cannot count {type(obj).__name__}")
    total = OpCounts()
    for _, cnt in rows:
        total = total + cnt
    return total, rows


def op_ratio(light: OpCounts, dense: OpCounts):
    """Total lightweight operations relative to the dense network."""
    if dense.total == 0:
        raise ValueError("dense total is zero")
    return light.total / dense.total


_COLUMNS = ("component", "mults", "adds", "bools", "indicators")


def format_table(rows, total=None):
    """Aligned text table over (component, OpCounts) rows."""
    body = [(name, str(c.mults), str(c.adds), str(c.bools),
             str(c.indicators)) for name, c in rows]
    if total is not None:
        body.append(("total", str(total.mults), str(total.adds),
                     str(total.bools), str(total.indicators)))
    widths = [max(len(r[i]) for r in [_COLUMNS] + body)
              for i in range(len(_COLUMNS))]
    lines = ["  ".join(_COLUMNS[i].ljust(widths[i])
                       for i in range(len(_COLUMNS)))]
    for r in body:
        lines.append("  ".join(
            r[0].ljust(widths[0]) if i == 0 else r[i].rjust(widths[i])
            for i in range(len(_COLUMNS))))
    return "\n".join(lines)


def format_csv(rows, total=None):
    lines = [",".join(_COLUMNS)]
    for name, c in rows:
        lines.append(f"{name},{c.mults},{c.adds},{c.bools},{c.indicators}")
    if total is not None:
        lines.append(f"total,{total.mults},{total.adds},{total.bools},"
                     f"{total.indicators}")
    return "\n".join(lines)
