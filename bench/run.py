"""ndlite benchmark.

    python3 bench/run.py --workload {train-g1,infer-g1,compile-g8}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory. The workload sets itself up several times (setup_s is the
median), then runs closed-loop cycles until S seconds have passed (at
least one), checks every output it can, and prints a table and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from spans recorded around the calls between ndlite's modules on
every second cycle (the others run untraced, and the difference between
the two is the tracing overhead). A result file with the machine and
library details, and with --trace 1 the spans, go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_ndlite():
    """Import ndlite from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ndlite" / "__init__.py").is_file():
        print(f"error: no ndlite sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ndlite
    if Path(ndlite.__file__).resolve().parent != (src / "ndlite").resolve():
        print(f"error: imported ndlite from {ndlite.__file__}", file=sys.stderr)
        sys.exit(2)


def blas_threads(np):
    """Thread count of the OpenBLAS numpy links against, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout if it is a git work tree (never of a parent)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ndlite").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(np),
            "git_commit": git_commit(), "src_sha256": src.hexdigest(),
            "platform": platform.platform(), "seed": seed}


def run(args):
    import numpy as np
    import layers
    import workloads as W
    from tracer import Tracer

    sizes = W.SIZES["tiny" if args.tiny else "full"]
    rec = W.Recorder()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    def traced(on, name, **attrs):
        if not on:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(tracer.installed())
        stack.enter_context(tracer.span(name, **attrs))
        return stack

    cycle_times = {False: [], True: []}
    traced_cycles = []
    programs = []
    try:
        w = W.WORKLOADS[args.workload](rec, args.seed, sizes, workdir)
        with W.StepClock(rec).installed():
            for k in range(sizes["setup_repeats"]):
                with traced(args.trace, "setup", index=k):
                    t0 = time.perf_counter()
                    state = w.setup(k)
                    rec.add("setup_s", time.perf_counter() - t0)
            start = time.perf_counter()
            i = 0
            # A traced run alternates untraced and traced cycles and needs
            # at least one of each.
            while (i < (2 if args.trace else 1)
                   or time.perf_counter() - start < args.seconds):
                on = bool(args.trace) and i % 2 == 1
                if on:
                    traced_cycles.append(len(tracer.spans))
                with traced(on, "cycle", index=i):
                    t0 = time.perf_counter()
                    w.cycle(state, i)
                    cycle_times[on].append(time.perf_counter() - t0)
                if on:
                    programs.append(layers.program_metrics(state["prog"],
                                                           state["prog_path"]))
                i += 1
        w.check_accuracy()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layers.span_metrics(tracer.spans, traced_cycles, w.flatten_width)
        for name in programs[0]:
            metrics[name] = float(np.mean([p[name] for p in programs]))
        untraced = float(np.median(cycle_times[False]))
        metrics["trace.overhead_s"] = float(np.median(cycle_times[True])) - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        table = layers.PER_LAYER
    else:
        metrics = rec.summary()
        table = W.END_TO_END
    missing = [name for name in table if not isinstance(metrics.get(name), float)]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "sizes": sizes,
              "environment": environment(args.seed),
              "cycles": {"untraced": len(cycle_times[False]),
                         "traced": len(cycle_times[True])},
              "samples": dict(sorted(rec.samples.items())),
              "totals": dict(sorted(rec.totals.items())),
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {name: {"value": metrics[name], "unit": table[name][0],
                                 "better": table[name][1]} for name in table}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl")

    for name in table:
        print(f"{name:34s} {metrics[name]:>16.6g} {table[name][0]}")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {name: {"value": metrics[name],
                                         "unit": table[name][0]}
                                  for name in table}}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-g1", "infer-g1", "compile-g8"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the smoke test only")
    args = p.parse_args(argv)
    import_ndlite()
    run(args)


if __name__ == "__main__":
    main()
