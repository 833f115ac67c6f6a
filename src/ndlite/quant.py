"""Learned-step-size ternary weight quantization and activation binarization.

Weights quantize to {-delta, 0, +delta} (round-half-away-from-zero);
the step size delta is itself trained. Backward passes use straight-through
estimates: the weight gradient passes through the quantizer unchanged, the
delta gradient follows the standard learned-step-size case analysis, and
binarized activations pass gradients only inside the window |x| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STAGES = ("fp", "weights", "full")


def round_half_away(x):
    """round() with .5 ties away from zero, elementwise."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_weights(w, delta):
    """clip(round(w/delta) * delta, -delta, +delta)."""
    if not delta > 0:
        raise ValueError(f"step size must be positive, got {delta}")
    return np.clip(round_half_away(w / delta) * delta, -delta, delta)


def ste_weight_grad(grad_wrt_quantized):
    """Straight-through: the quantizer is identity in the backward pass."""
    return grad_wrt_quantized


def step_size_grad(w, delta, grad_wrt_quantized):
    """Scalar gradient for delta, scaled by 1/sqrt(w.size).

    Per-element factor: round(v) - v for |v| <= 1 (v = w/delta), else the
    saturation sign; weights sitting exactly on a level contribute zero.
    """
    if not delta > 0:
        raise ValueError(f"step size must be positive, got {delta}")
    v = w / delta
    factor = np.where(np.abs(v) <= 1.0, round_half_away(v) - v, np.sign(v))
    return float((factor * grad_wrt_quantized).sum()) * (1.0 / np.sqrt(w.size))


@dataclass
class TernaryLayer:
    codes: np.ndarray  # int8, values in {-1, 0, +1}
    delta: float


def extract_ternary(w, delta) -> TernaryLayer:
    """Integer codes quantized weights / delta; delta kept for folding."""
    if delta is None or not delta > 0:
        raise ValueError("layer has no positive step size; quantize it first")
    codes = np.clip(round_half_away(np.asarray(w, dtype=np.float64) / delta),
                    -1, 1).astype(np.int8)
    return TernaryLayer(codes=codes, delta=float(delta))


def binarize_activation(x):
    """Forward I(x > 0); cache passes gradients only where |x| <= 1."""
    return (x > 0).astype(x.dtype), np.abs(x) <= 1.0


def binarize_activation_grad(dy, cache):
    return dy * cache


def init_step_size(w):
    """2 * mean|w| to start; floored so the quantizer stays defined."""
    return max(2.0 * float(np.mean(np.abs(w))), 1e-8)


@dataclass
class QuantSchedule:
    """Epoch budget per stage: full-precision warmup, then weight
    quantization, then weight quantization plus binarized activations."""
    warmup_epochs: int = 5
    weight_quant_epochs: int = 5
    act_quant_epochs: int = 10

    def __post_init__(self):
        for name in ("warmup_epochs", "weight_quant_epochs", "act_quant_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total_epochs(self):
        return self.warmup_epochs + self.weight_quant_epochs + self.act_quant_epochs

    def stage_at(self, epoch):
        if epoch < self.warmup_epochs:
            return "fp"
        if epoch < self.warmup_epochs + self.weight_quant_epochs:
            return "weights"
        return "full"
