"""Spans around the calls ndlite's modules make on one another.

The tracer lives outside the package: `Tracer.installed()` replaces each
traced function with a wrapper in every ndlite module that binds it by name
(cli, lowering and model import functions with `from ... import`, and
those bindings are what their callers use), and each traced method on its
class. Leaving the block puts the originals back, so an untraced cycle runs
the library unchanged.

A span is [name, start, end, parent index, attrs]. Spans are kept in memory
and written out once, by `dump`, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

# (module, attribute) of every traced function; "Class.method" for methods.
TARGETS = (
    ("ndlite.nn", "conv2d"), ("ndlite.nn", "conv2d_grad"),
    ("ndlite.nn", "_im2col"), ("ndlite.nn", "batchnorm"),
    ("ndlite.nn", "batchnorm_grad"), ("ndlite.nn", "dense"),
    ("ndlite.nn", "dense_grad"), ("ndlite.nn", "Adam.step"),
    ("ndlite.quant", "quantize_weights"), ("ndlite.quant", "step_size_grad"),
    ("ndlite.quant", "binarize_activation"),
    ("ndlite.quant", "extract_ternary"),
    ("ndlite.model", "Model.forward"), ("ndlite.model", "Model.backward"),
    ("ndlite.model", "Model.scores"),
    ("ndlite.model", "exact_bit_forward"), ("ndlite.model", "train"),
    ("ndlite.model", "evaluate"),
    ("ndlite.lowering", "lower_model"), ("ndlite.lowering", "run_program"),
    ("ndlite.lowering", "verify_equivalence"),
    ("ndlite.lowering", "save_program"), ("ndlite.lowering", "load_program"),
    ("ndlite.opcount", "count_model"),
    ("ndlite.dataset", "gen_dataset"), ("ndlite.dataset", "save_dataset"),
    ("ndlite.dataset", "load_dataset"),
    ("ndlite.speck", "encrypt"), ("ndlite.speck", "key_schedule"),
    ("ndlite.rng", "draw_array"),
    ("ndlite.checkpoint", "load_weights"),
    ("ndlite.cli", "main"),
)


def span_name(module, attr):
    """'ndlite.nn', 'Adam.step' -> 'nn.Adam.step'."""
    return module.split(".", 1)[1] + "." + attr


# ------------------------------------------------------------ span attrs
# Computed from argument and result shapes after the call returns.

def _conv_attrs(args, result):
    x, w = args[0], args[1]
    y, cache = result
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    flops = 2 * n * o * c * kh * kw * h * wd
    return {"kernel": kh, "flops": flops,
            "bytes": x.nbytes + w.nbytes + cache[0].nbytes + y.nbytes}


def _conv_grad_attrs(args, result):
    dy, (cols, w, x_shape, _) = args[0], args[1]
    dx, dw, _ = result
    n, o, h, wd = dy.shape
    ck = cols.shape[1]
    # dw = dy . cols^T and dcols = w^T . dy, each 2*n*o*ck*h*w flops
    flops = 4 * n * o * ck * h * wd
    return {"kernel": w.shape[2], "flops": flops,
            "bytes": dy.nbytes + 2 * cols.nbytes + w.nbytes + dx.nbytes
            + dw.nbytes}


def _dense_attrs(args, result):
    x, w = args[0], args[1]
    y = result[0]
    return {"shape": list(w.shape), "flops": 2 * x.shape[0] * w.size,
            "bytes": x.nbytes + w.nbytes + y.nbytes}


def _dense_grad_attrs(args, result):
    dy, (x, w) = args[0], args[1]
    dx, dw, _ = result
    return {"shape": list(w.shape), "flops": 4 * dy.shape[0] * w.size,
            "bytes": dy.nbytes + x.nbytes + w.nbytes + dx.nbytes + dw.nbytes}


def _axis_in_range(size, k, pad):
    """(output index, tap) pairs along one axis that read inside the input."""
    return sum(1 for i in range(size) for u in range(k)
               if 0 <= i + u - pad < size)


def _im2col_attrs(args, result):
    x, kh, kw, ph, pw = args
    n, c, h, w = x.shape
    entries = n * c * kh * kw * h * w
    inside = n * c * _axis_in_range(h, kh, ph) * _axis_in_range(w, kw, pw)
    return {"entries": entries, "padding": entries - inside}


def _path_bytes_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _cli_attrs(args, result):
    argv = args[0] if args else []
    return {"command": argv[0] if argv else None, "rc": result}


ATTRS = {
    "nn.conv2d": _conv_attrs, "nn.conv2d_grad": _conv_grad_attrs,
    "nn.dense": _dense_attrs, "nn.dense_grad": _dense_grad_attrs,
    "nn._im2col": _im2col_attrs,
    "checkpoint.load_weights": _path_bytes_attrs,
    "cli.main": _cli_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    # -------------------------------------------------------- recording

    @contextmanager
    def span(self, name, **attrs):
        """A span opened by the benchmark itself, such as one cycle."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, attrs or None)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, attrs):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = attrs
        self._stack.pop()

    def _wrap(self, fn, name):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, result)
                return result
            finally:
                self._close(idx, attrs)

        return traced

    # -------------------------------------------------------- patching

    @contextmanager
    def installed(self):
        """Trace every TARGETS call made inside the block."""
        patches = []
        try:
            for module_name, attr in TARGETS:
                module = sys.modules[module_name]
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, name))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, name)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "ndlite" and not mod_name.startswith("ndlite."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    # -------------------------------------------------------- output

    def dump(self, path):
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "attrs": attrs}) + "\n")
