"""Per-layer metrics: from the spans of a traced run, and from a program.

Time metrics are self times (a span's duration minus its child spans),
averaged per call, except where span_metrics says otherwise. A function
the workload never calls reads 0. Call counts are per traced cycle.
"""

from __future__ import annotations

import os
from collections import defaultdict

from ndlite.opcount import count_model

NN_LAYERS = ("conv0", "res", "dense1", "dense2", "out")
COMPONENTS = ("conv0", "residual", "head", "output")

# name -> (unit, better); the order here is the order they are printed.
PER_LAYER = {}
for _layer in NN_LAYERS:
    for _dir in ("fwd", "bwd"):
        PER_LAYER[f"nn.{_layer}.{_dir}_ms"] = ("ms", "lower")
for _name in ("nn.batchnorm.fwd_ms", "nn.batchnorm.bwd_ms", "nn.adam.step_ms",
              "nn.im2col_ms"):
    PER_LAYER[_name] = ("ms", "lower")
for _layer in NN_LAYERS:
    for _dir in ("fwd", "bwd"):
        PER_LAYER[f"nn.{_layer}.{_dir}_flops"] = ("flop", "lower")
        PER_LAYER[f"nn.{_layer}.{_dir}_bytes"] = ("B", "lower")
PER_LAYER["nn.im2col.padding_share"] = ("fraction", "lower")
for _fn in ("quantize_weights", "step_size_grad", "binarize", "extract_ternary"):
    PER_LAYER[f"quant.{_fn}_ms"] = ("ms", "lower")
    PER_LAYER[f"quant.{_fn}.calls"] = ("count", "lower")
PER_LAYER.update({
    "model.forward_ms": ("ms", "lower"),
    "model.backward_ms": ("ms", "lower"),
    "model.exact_bit_forward_ms": ("ms", "lower"),
    "model.train.epoch_s": ("s", "lower"),
    "model.train.val_s": ("s", "lower"),
    "lowering.run_program_ms": ("ms", "lower"),
    "lowering.lower_model_s": ("s", "lower"),
    "lowering.verify.trials_s": ("s", "lower"),
    "lowering.verify.exhaustive_s": ("s", "lower"),
    "lowering.save_program_s": ("s", "lower"),
    "lowering.load_program_s": ("s", "lower"),
    "lowering.program_bytes": ("B", "lower"),
    "lowering.padding_gather_share": ("fraction", "lower"),
    "lowering.dead_channel_share": ("fraction", "lower"),
    "opcount.count_model_ms": ("ms", "lower"),
})
for _comp in COMPONENTS:
    for _kind in ("bools", "adds", "indicators"):
        PER_LAYER[f"opcount.{_comp}.{_kind}"] = ("ops/sample", "lower")
PER_LAYER.update({
    "dataset.gen_dataset_s": ("s", "lower"),
    "speck.encrypt_s": ("s", "lower"),
    "speck.key_schedule_s": ("s", "lower"),
    "rng.draw_array_s": ("s", "lower"),
    "dataset.save_s": ("s", "lower"),
    "dataset.load_s": ("s", "lower"),
    "checkpoint.load_weights_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "cli.eval_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
})

# span name -> per-layer metric prefix of its per-call mean self time
_SELF_MS = {
    "nn.batchnorm": "nn.batchnorm.fwd_ms", "nn.batchnorm_grad": "nn.batchnorm.bwd_ms",
    "nn.Adam.step": "nn.adam.step_ms", "nn._im2col": "nn.im2col_ms",
    "quant.quantize_weights": "quant.quantize_weights_ms",
    "quant.step_size_grad": "quant.step_size_grad_ms",
    "quant.binarize_activation": "quant.binarize_ms",
    "quant.extract_ternary": "quant.extract_ternary_ms",
    "model.Model.forward": "model.forward_ms",
    "model.Model.backward": "model.backward_ms",
    "model.exact_bit_forward": "model.exact_bit_forward_ms",
    "lowering.run_program": "lowering.run_program_ms",
    "opcount.count_model": "opcount.count_model_ms",
}
_SELF_S = {
    "dataset.gen_dataset": "dataset.gen_dataset_s",
    "speck.encrypt": "speck.encrypt_s",
    "speck.key_schedule": "speck.key_schedule_s",
    "rng.draw_array": "rng.draw_array_s",
    "dataset.save_dataset": "dataset.save_s",
    "dataset.load_dataset": "dataset.load_s",
    "checkpoint.load_weights": "checkpoint.load_weights_s",
}
# span name -> metric of its per-call mean duration, children included
_TOTAL_S = {
    "lowering.lower_model": "lowering.lower_model_s",
    "lowering.save_program": "lowering.save_program_s",
    "lowering.load_program": "lowering.load_program_s",
}
_CALLS = {
    "quant.quantize_weights": "quant.quantize_weights.calls",
    "quant.step_size_grad": "quant.step_size_grad.calls",
    "quant.binarize_activation": "quant.binarize.calls",
    "quant.extract_ternary": "quant.extract_ternary.calls",
}


# calls a workload makes between training epochs (train-g1 serves its
# previous model there); they are not part of an epoch
_SERVING = ("dataset.gen_dataset", "lowering.lower_model",
            "lowering.save_program", "lowering.load_program",
            "lowering.verify_equivalence", "opcount.count_model",
            "model.Model.scores", "model.exact_bit_forward",
            "lowering.run_program")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _nn_layer(span_name, attrs, flatten_width):
    """Which layer a kernel call served, from its weight shape."""
    if span_name in ("nn.conv2d", "nn.conv2d_grad"):
        return "conv0" if attrs["kernel"] == 1 else "res"
    fan_in, fan_out = attrs["shape"]
    if fan_in == flatten_width:
        return "dense1"
    return "out" if fan_out == 2 else "dense2"


def span_metrics(spans, cycle_ids, flatten_width):
    """Per-layer metrics from traced spans.

    spans: Tracer.spans; cycle_ids: indices of the traced "cycle" spans,
    which call counts are divided by.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)
    own = [dur[i] - child_time[i] for i in range(n)]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def in_cycle(i):
        while i is not None:
            if i in cycle_set:
                return True
            i = spans[i][3]
        return False

    cycle_set = set(cycle_ids)
    out = {}
    for name, metric in _SELF_MS.items():
        out[metric] = 1e3 * _mean([own[i] for i in by_name[name]])
    for name, metric in _SELF_S.items():
        out[metric] = _mean([own[i] for i in by_name[name]])
    for name, metric in _TOTAL_S.items():
        out[metric] = _mean([dur[i] for i in by_name[name]])
    for name, metric in _CALLS.items():
        calls = sum(1 for i in by_name[name] if in_cycle(i))
        out[metric] = calls / len(cycle_ids) if cycle_ids else 0.0

    groups = defaultdict(list)
    for name, direction in (("nn.conv2d", "fwd"), ("nn.conv2d_grad", "bwd"),
                            ("nn.dense", "fwd"), ("nn.dense_grad", "bwd")):
        for i in by_name[name]:
            layer = _nn_layer(name, spans[i][4], flatten_width)
            groups[f"nn.{layer}.{direction}"].append(i)
    for layer in NN_LAYERS:
        for direction in ("fwd", "bwd"):
            ids = groups[f"nn.{layer}.{direction}"]
            prefix = f"nn.{layer}.{direction}"
            out[f"{prefix}_ms"] = 1e3 * _mean([own[i] for i in ids])
            out[f"{prefix}_flops"] = _mean([spans[i][4]["flops"] for i in ids])
            out[f"{prefix}_bytes"] = _mean([spans[i][4]["bytes"] for i in ids])

    cols = by_name["nn._im2col"]
    entries = sum(spans[i][4]["entries"] for i in cols)
    padding = sum(spans[i][4]["padding"] for i in cols)
    out["nn.im2col.padding_share"] = padding / entries if entries else 0.0

    trials, exhaustive = [], []
    for i in by_name["lowering.verify_equivalence"]:
        t = sum(dur[c] for c in children[i] if spans[c][0] in
                ("lowering.run_program", "model.exact_bit_forward"))
        trials.append(t)
        exhaustive.append(own[i])
    out["lowering.verify.trials_s"] = _mean(trials)
    out["lowering.verify.exhaustive_s"] = _mean(exhaustive)

    epochs, vals = [], []
    for i in by_name["model.train"]:
        evals = [c for c in children[i] if spans[c][0] == "model.evaluate"]
        served = sum(dur[c] for c in children[i] if spans[c][0] in _SERVING)
        if evals:
            epochs.append((dur[i] - served) / len(evals))
            vals.extend(dur[c] for c in evals)
    out["model.train.epoch_s"] = _mean(epochs)
    out["model.train.val_s"] = _mean(vals)

    loads = by_name["checkpoint.load_weights"]
    out["checkpoint.bytes"] = _mean([spans[i][4]["bytes"] for i in loads])
    out["cli.eval_s"] = _mean([own[i] for i in by_name["cli.main"]
                               if spans[i][4]["command"] == "eval"])
    return out


def program_metrics(prog, path):
    """Metrics that are properties of one lowered program and its file."""
    out = {"lowering.program_bytes": float(os.path.getsize(path))}
    out["lowering.padding_gather_share"] = padding_gather_share(prog)
    out["lowering.dead_channel_share"] = dead_channel_share(prog)
    _, rows = count_model(prog)
    for comp, counts in rows:
        for kind in ("bools", "adds", "indicators"):
            out[f"opcount.{comp}.{kind}"] = float(getattr(counts, kind))
    return out


def padding_gather_share(prog):
    """Share of conv gathers that read padding at every output position:
    taps whose row or column offset never lands inside the input."""
    total = padding = 0
    for layer in prog.layers:
        if layer.kind != "conv":
            continue
        kh, kw = layer.kernel
        dead_u = {u for u in range(kh) if abs(u - kh // 2) >= 16}
        dead_v = {v for v in range(kw) if abs(v - kw // 2) >= prog.group_size}
        for cp in layer.channels:
            for _, u, v in cp.p + cp.n:
                total += 1
                padding += u in dead_u or v in dead_v
    return padding / total if total else 0.0


def dead_channel_share(prog):
    """Share of non-output channels that no live channel reads (backward
    liveness from the decision layer; a skip reads channel c of its source
    for each live channel c of the layer that takes it)."""
    layers = prog.layers
    positions = 16 * prog.group_size
    live = {layers[-1].name: [True] * len(layers[-1].channels)}
    dead = total = 0
    for i in range(len(layers) - 2, -1, -1):
        src, nxt = layers[i], layers[i + 1]
        used = [False] * len(src.channels)
        flat = src.kind == "conv" and nxt.kind == "dense"
        for cp, alive in zip(nxt.channels, live[nxt.name]):
            if not alive:
                continue
            for idx in cp.p + cp.n:
                if isinstance(idx, tuple):
                    used[idx[0]] = True
                else:
                    used[idx // positions if flat else idx] = True
        for later in layers[i + 1:]:
            if later.skip_from == src.name:
                for c, alive in enumerate(live[later.name]):
                    if alive and later.channels[c].const is None:
                        used[c] = True
        live[src.name] = used
        dead += used.count(False)
        total += len(used)
    return dead / total if total else 0.0
