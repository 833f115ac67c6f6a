"""Quantizer unit tests: pointwise values, invariants, gradient cases."""

import numpy as np
import pytest

from ndlite import quant
from ndlite.quant import (QuantSchedule, binarize_activation,
                          binarize_activation_grad, extract_ternary,
                          init_step_size, quantize_weights, round_half_away,
                          step_size_grad, ste_weight_grad)


def test_round_half_away_ties():
    x = np.array([-1.5, -0.5, -0.4, 0.0, 0.4, 0.5, 1.5, 2.5])
    assert np.array_equal(round_half_away(x), [-2, -1, 0, 0, 0, 1, 2, 3])


def test_quantize_pointwise_values():
    assert quantize_weights(np.array([0.0]), 0.5)[0] == 0.0
    # round(0.7/0.5)=round(1.4)=1 -> clip(+0.5)
    assert quantize_weights(np.array([0.7]), 0.5)[0] == 0.5
    assert quantize_weights(np.array([-10.0]), 0.5)[0] == -0.5
    # tie at v=0.5 rounds away from zero
    assert quantize_weights(np.array([0.25]), 0.5)[0] == 0.5
    assert quantize_weights(np.array([-0.25]), 0.5)[0] == -0.5
    # just under the tie rounds to zero
    assert quantize_weights(np.array([0.2499]), 0.5)[0] == 0.0


def test_quantize_invariants_bulk():
    r = np.random.default_rng(0)
    w = r.normal(scale=2.0, size=100_000)
    delta = 0.37
    q = quantize_weights(w, delta)
    assert np.array_equal(quantize_weights(q, delta), q)  # idempotent
    assert np.abs(q).max() <= delta  # range containment
    assert set(np.unique(q)) <= {-delta, 0.0, delta}  # ternary alphabet


def test_quantize_validates():
    with pytest.raises(ValueError):
        quantize_weights(np.ones(3), 0.0)


def test_ste_is_identity():
    g = np.random.default_rng(1).normal(size=(4, 5))
    assert ste_weight_grad(g) is g


def test_step_size_grad_on_levels_is_zero():
    delta = 0.5
    w = np.array([-delta, 0.0, delta, delta, -delta])
    g = np.ones_like(w)
    assert step_size_grad(w, delta, g) == 0.0


def test_step_size_grad_saturation():
    delta = 0.5
    w = np.array([10 * delta])
    g = np.ones(1)
    assert step_size_grad(w, delta, g) == 1.0
    assert step_size_grad(-w, delta, g) == -1.0


def test_step_size_grad_in_range_value():
    # v = 0.3: contribution round(0.3) - 0.3 = -0.3, times incoming grad 2.
    assert abs(step_size_grad(np.array([0.3]), 1.0, np.array([2.0]))
               + 0.6) < 1e-12


def test_step_size_grad_scale():
    w = np.array([5.0, -5.0, 5.0, 5.0])
    g = np.array([1.0, 1.0, 1.0, 1.0])
    # scale 1/sqrt(4): (1 - 1 + 1 + 1) * 0.5 = 1
    assert abs(step_size_grad(w, 1.0, g) - 1.0) < 1e-12


def test_extract_ternary_codes():
    delta = 0.25
    w = np.array([[-0.3, 0.0, 0.3], [0.1, -0.1, 5.0]])
    t = extract_ternary(w, delta)
    assert t.codes.dtype == np.int8
    assert np.array_equal(t.codes, [[-1, 0, 1], [0, 0, 1]])
    assert t.delta == delta


def test_extract_ternary_dead_layer_and_rejection():
    t = extract_ternary(np.zeros((2, 2)), 0.5)
    assert not t.codes.any()
    with pytest.raises(ValueError):
        extract_ternary(np.ones(3), None)
    with pytest.raises(ValueError):
        extract_ternary(np.ones(3), -0.1)


def test_extract_matches_halfdelta_rule():
    # Nonzero codes are exactly the weights with |w| >= delta/2.
    r = np.random.default_rng(2)
    w = r.normal(size=10_000)
    delta = 0.8
    t = extract_ternary(w, delta)
    assert np.count_nonzero(t.codes) == int(np.sum(np.abs(w) >= delta / 2))


def test_binarize_activation_values():
    x = np.array([-2.0, 0.0, 3.0])
    y, _ = binarize_activation(x)
    assert np.array_equal(y, [0.0, 0.0, 1.0])
    allpos, _ = binarize_activation(np.full(5, 0.01))
    assert np.array_equal(allpos, np.ones(5))


def test_binarize_gradient_window():
    x = np.array([0.5, 2.0, -0.9, -1.5, 1.0])
    _, cache = binarize_activation(x)
    dy = np.ones_like(x)
    assert np.array_equal(binarize_activation_grad(dy, cache),
                          [1.0, 0.0, 1.0, 0.0, 1.0])


def test_init_step_size():
    assert init_step_size(np.array([1.0, -1.0])) == 2.0
    assert init_step_size(np.zeros(10)) > 0.0


def test_quant_schedule_stages():
    s = QuantSchedule(warmup_epochs=2, weight_quant_epochs=3, act_quant_epochs=4)
    assert s.total_epochs == 9
    stages = [s.stage_at(e) for e in range(9)]
    assert stages == ["fp"] * 2 + ["weights"] * 3 + ["full"] * 4
    with pytest.raises(ValueError):
        QuantSchedule(warmup_epochs=-1)


def test_toy_descent_through_quantizer():
    # One weight, one step size, target 2.7: straight-through training must
    # reduce the loss (w saturates at +delta while delta grows toward target).
    w, delta = np.array([0.1]), 0.2
    target = 2.7

    def loss():
        return float((quantize_weights(w, delta)[0] - target) ** 2)

    first = loss()
    lr = 0.05
    for _ in range(100):
        q = quantize_weights(w, delta)
        dq = 2.0 * (q - target)
        w -= lr * ste_weight_grad(np.array([dq]))[0]
        delta = max(delta - lr * step_size_grad(w, delta, np.array([dq])),
                    1e-8)
    assert loss() < first * 0.25


def test_stage_names_are_stable():
    assert quant.STAGES == ("fp", "weights", "full")
