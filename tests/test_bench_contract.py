"""The benchmark's tracer against the library it traces.

bench/tracer.py wraps the library functions it names in TARGETS and
computes span attributes from their arguments and results (ATTRS). A
change of a kernel's name, arguments or result layout breaks the traced
benchmark; these tests catch that in the unit suite. The bench files are
imported read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ndlite.cli  # the package does not import it; the tracer patches it
from ndlite import lowering, nn
from ndlite.model import exact_bit_forward, save_model

from test_model import randomized_quantized_model, small_cfg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    path = BENCH / f"{name}.py"
    if not path.exists():
        pytest.skip(f"no {path}")
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _bench_module("tracer")


def test_every_target_resolves(tracer_module):
    for module_name, attr in tracer_module.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def test_traced_routes_give_every_span_its_attrs(tracer_module, tmp_path):
    m = randomized_quantized_model(7, cfg=small_cfg(group_size=1))
    bits = np.random.default_rng(7).integers(0, 2, size=(64, 4, 16, 1),
                                             dtype=np.uint8)
    path = tmp_path / "m.ndwf"
    save_model(m, path)
    prog = lowering.lower_model(m)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        logits, cache = m.forward(bits.astype(np.float32), training=True)
        _, dlogits = nn.softmax_xent(logits, np.arange(64) % 2)
        nn.Adam().step(m.param_dict(), m.backward(dlogits, cache))
        m.project_deltas()
        m.scores(bits)
        exact_bit_forward(m, bits)
        lowering.run_program(prog, bits)
        assert ndlite.cli.main(["count", str(path)]) == 0
    seen = {}
    for name, _, end, _, attrs in tracer.spans:
        assert end is not None, name
        if name in tracer_module.ATTRS:
            assert isinstance(attrs, dict), name
            seen[name] = seen.get(name, 0) + 1
    assert set(seen) == set(tracer_module.ATTRS)

    # The per-layer metrics attribute every kernel span to a layer.
    layers = _bench_module("layers")
    metrics = layers.span_metrics(tracer.spans, [], m.cfg.flatten_width)
    for layer in ("conv0", "res", "dense1", "dense2", "out"):
        for direction in ("fwd", "bwd"):
            assert metrics[f"nn.{layer}.{direction}_flops"] > 0, (layer,
                                                                  direction)
