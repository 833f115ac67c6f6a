"""The benchmark's three workloads and the stages they share.

Every workload is a closed loop: one caller makes the next library call only
after the previous one returns. Each workload reports every end-to-end
metric, so besides the stages it exists for (see README.md) each cycle runs
a small instance of the others; the sizes below give its own stages most of
the run. Inputs come from the workload seed only, through `gen_dataset`.

On a shared host the speed of the machine drifts by tens of percent over
seconds to minutes, so a run's figures are steady only when every stage is
sampled all through the run: each stage runs in every cycle, and train-g1
serves its previous model between training epochs rather than in one block
per cycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from ndlite import cli, dataset, lowering, model, opcount
from ndlite.quant import QuantSchedule

CKPT_DIR = Path(__file__).resolve().parent / "checkpoints"
ROUNDS = 3
DESK = model.ModelConfig(group_size=1, channels=32, residual_blocks=1,
                         dense_sizes=(64, 64))

# name -> (unit, better), in print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "gen_pairs_per_s": ("pairs/s", "higher"),
    "train_samples_per_s": ("samples/s", "higher"),
    "train_step_ms_p50": ("ms", "lower"),
    "train_step_ms_p90": ("ms", "lower"),
    "val_acc": ("fraction", "higher"),
    "float_samples_per_s": ("samples/s", "higher"),
    "exact_samples_per_s": ("samples/s", "higher"),
    "program_samples_per_s": ("samples/s", "higher"),
    "program_batch_ms_mean": ("ms", "lower"),
    "program_batch_ms_p90": ("ms", "lower"),
    "lower_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "verify_coverage": ("fraction", "higher"),
    "program_ops": ("ops/sample", "lower"),
}

# Sizes count samples; a g=8 sample holds 8 cipher pairs. "tiny" is for the
# smoke test only.
SIZES = {
    "full": {
        "setup_repeats": 5, "gen_repeats": 24, "lower_repeats": 5,
        "route_batch": 256,
        "train_g1": {"train": 8192, "val": 2048, "schedule": (2, 1, 2),
                     "slice_batches": 2, "slice_gen_repeats": 6,
                     "verify_trials": 256,
                     "warmup": 1024, "val_acc_floor": 0.8},
        "infer_g1": {"pool": 4096, "batches": 8, "verify_trials": 256,
                     "tune": 1024, "tune_val": 64, "tune_batch": 512,
                     "val_acc_floor": 0.9},
        "compile_g8": {"eval": 512, "verify_trials": 256, "tune": 512,
                       "tune_val": 32, "tune_batch": 128,
                       "val_acc_floor": 0.9},
    },
    "tiny": {
        "setup_repeats": 2, "gen_repeats": 2, "lower_repeats": 2,
        "route_batch": 64,
        # Fewer training samples than this do not learn, so the floor
        # would fail.
        "train_g1": {"train": 8192, "val": 512, "schedule": (2, 1, 2),
                     "slice_batches": 2, "slice_gen_repeats": 2,
                     "verify_trials": 16,
                     "warmup": 512, "val_acc_floor": 0.8},
        "infer_g1": {"pool": 256, "batches": 2, "verify_trials": 16,
                     "tune": 256, "tune_val": 16, "tune_batch": 128,
                     "val_acc_floor": 0.9},
        "compile_g8": {"eval": 64, "verify_trials": 16, "tune": 64,
                       "tune_val": 8, "tune_batch": 32,
                       "val_acc_floor": 0.9},
    },
}


def sub_seed(seed, k):
    """Seed of the k-th input stream drawn for workload seed `seed`."""
    return (seed * 1000 + k) & ((1 << 63) - 1)


class Recorder:
    """Samples per metric, and correctness checks counted as operations.

    `add` keeps one sample; `rate` adds to a (work, seconds) total whose
    ratio is the metric, so a rate weighs every second of the run alike.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.totals = defaultdict(lambda: [0.0, 0.0])
        self.attempted = 0
        self.failed = 0

    def add(self, metric, value):
        self.samples[metric].append(value)

    def rate(self, metric, work, seconds):
        total = self.totals[metric]
        total[0] += work
        total[1] += seconds

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def summary(self):
        """End-to-end metric values."""
        s = self.samples
        out = {name: work / seconds for name, (work, seconds) in self.totals.items()}
        out["setup_s"] = float(np.median(s["setup_s"]))
        for name in ("val_acc", "lower_s", "verify_s", "verify_coverage",
                     "program_ops"):
            out[name] = float(np.mean(s[name]))
        out["train_step_ms_p50"] = float(np.percentile(s["train_step_ms"], 50))
        # run_program batch times come in two modes that the host's load
        # sets, and a median would jump between them: report the mean
        out["program_batch_ms_mean"] = float(np.mean(s["program_batch_ms"]))
        for base in ("train_step_ms", "program_batch_ms"):
            out[f"{base}_p90"] = float(np.percentile(s[base], 90))
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out


class StepClock:
    """Training step times, from a training-mode `Model.forward` call to the
    `project_deltas` call that ends the same step in `train`."""

    def __init__(self, rec):
        self.rec = rec
        self._t0 = None

    @contextlib.contextmanager
    def installed(self):
        cls = model.Model
        forward, project = cls.__dict__["forward"], cls.__dict__["project_deltas"]
        clock = self

        def timed_forward(self_, x, training):
            if training:
                clock._t0 = time.perf_counter()
            return forward(self_, x, training)

        def timed_project(self_):
            project(self_)
            if clock._t0 is not None:
                clock.rec.add("train_step_ms", 1e3 * (time.perf_counter() - clock._t0))
                clock._t0 = None

        cls.forward, cls.project_deltas = timed_forward, timed_project
        try:
            yield
        finally:
            cls.forward, cls.project_deltas = forward, project


# ------------------------------------------------------------------ stages

def gen(rec, n_samples, group_size, seed, repeats=1):
    """Generate one labeled set `repeats` times; every copy must match."""
    n_per_class = n_samples // 2 * group_size
    first = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ds = dataset.gen_dataset(n_per_class, ROUNDS, group_size=group_size,
                                 seed=seed)
        rec.rate("gen_pairs_per_s", 2 * n_per_class, time.perf_counter() - t0)
        if first is None:
            first = ds
        else:
            rec.check(np.array_equal(ds.bits, first.bits)
                      and np.array_equal(ds.labels, first.labels),
                      f"gen_dataset seed={seed} is not deterministic")
    return first


def load_checkpoint(rec, name):
    """Load a committed checkpoint after checking its sha256."""
    path = CKPT_DIR / f"{name}.ndwf"
    manifest = json.loads((CKPT_DIR / "manifest.json").read_text())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    rec.check(digest == manifest[name]["sha256"], f"{path.name} sha256 mismatch")
    return path, model.load_model(path)


def train_timed(rec, m, train_set, val_set, hyper, schedule=None,
                between_epochs=None):
    """`train`, recording samples trained per second with each epoch's
    validation included: an epoch ends when `train` has evaluated it.
    `between_epochs()`, if given, runs after each epoch, untimed."""
    quant = QuantSchedule(*schedule) if schedule else None
    evaluate = model.evaluate
    start = [time.perf_counter()]

    def timed_evaluate(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        rec.rate("train_samples_per_s", len(train_set),
                 time.perf_counter() - start[0])
        if between_epochs is not None:
            between_epochs()
        start[0] = time.perf_counter()
        return out

    model.evaluate = timed_evaluate
    try:
        return model.train(m, train_set, val_set, hyper=hyper, quant=quant)
    finally:
        model.evaluate = evaluate


def lower_and_check(rec, m, path, verify_trials, seed, repeats):
    """lower (`repeats` times, each copy must match) -> save -> load ->
    verify -> count, each checked and timed."""
    prog = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        again = lowering.lower_model(m)
        rec.add("lower_s", time.perf_counter() - t0)
        if prog is None:
            prog = again
        else:
            rec.check(again == prog, "lower_model is not deterministic")
    lowering.save_program(prog, path)
    loaded = lowering.load_program(path)
    rec.check(loaded == prog, "program changed through save_program/load_program")
    t0 = time.perf_counter()
    rep = lowering.verify_equivalence(loaded, m, trials=verify_trials, seed=seed)
    rec.add("verify_s", time.perf_counter() - t0)
    rec.check(rep.passed, f"verify_equivalence failed: {rep.counterexample}")
    channels = sum(len(layer.channels) for layer in loaded.layers
                   if layer.decision != "compare")
    rec.add("verify_coverage", rep.exhaustive_channels / channels)
    total, _ = opcount.count_model(loaded)
    rec.add("program_ops", total.bools + total.adds + total.indicators)
    return loaded


def routes(rec, m, prog, bits, labels, batch):
    """Float, exact and program routes over fixed-size batches; program
    labels must equal exact labels on every batch. Returns the accuracy of
    the exact labels."""
    correct = 0
    for lo in range(0, len(bits), batch):
        xb = bits[lo:lo + batch]
        t0 = time.perf_counter()
        m.scores(xb)
        t1 = time.perf_counter()
        exact, _ = model.exact_bit_forward(m, xb)
        t2 = time.perf_counter()
        prog_labels = lowering.run_program(prog, xb)
        t3 = time.perf_counter()
        rec.rate("float_samples_per_s", len(xb), t1 - t0)
        rec.rate("exact_samples_per_s", len(xb), t2 - t1)
        rec.rate("program_samples_per_s", len(xb), t3 - t2)
        rec.add("program_batch_ms", 1e3 * (t3 - t2))
        rec.check(np.array_equal(prog_labels, exact),
                  f"program labels differ from exact labels in batch at {lo}")
        correct += int(np.sum(exact == labels[lo:lo + batch]))
    return correct / len(bits)


def tune_step(rec, state, group_size, seed, size, sizes):
    """One epoch of full-stage training of the copy in state["tuned"] on a
    small fresh set: the fine-tuning a fixed checkpoint can take."""
    k = state["tunes"]
    state["tunes"] += 1
    chunk = gen(rec, size["tune"], group_size, sub_seed(seed, 100 + k),
                sizes["gen_repeats"])
    hyper = model.TrainHyper(epochs=1, batch_size=size["tune_batch"], seed=k)
    state["tuned"], _ = train_timed(rec, state["tuned"], chunk,
                                    state["tune_val"], hyper)


# --------------------------------------------------------------- workloads

class Workload:
    """setup() builds the state, once per repeat; cycle() is one pass of
    the closed loop."""

    flatten_width = 512  # input width of dense1, which tells it apart

    def __init__(self, rec, seed, sizes, workdir):
        self.rec, self.seed, self.sizes, self.workdir = rec, seed, sizes, workdir

    def check_accuracy(self):
        """The run's val_acc must reach the workload's floor. One cycle of
        fresh training can dip in the full stage; the floor is on the mean."""
        floor = self.sizes[self.key]["val_acc_floor"]
        acc = float(np.mean(self.rec.samples["val_acc"]))
        self.rec.check(acc >= floor, f"{self.key} val_acc {acc} below {floor}")


class TrainG1(Workload):
    """Train a fresh desk-scale model on freshly generated data, then lower,
    verify and count the result. The model trained in one cycle is served
    in the next, a slice after each training epoch, so that every stage is
    sampled all through the run."""

    key = "train_g1"

    def setup(self, k):
        s = self.sizes[self.key]
        warm = gen(self.rec, s["warmup"], 1, sub_seed(self.seed, 1))
        # One fp epoch on a small set, so lazy library set-up is paid here.
        model.train(model.build_model(DESK, seed=0), warm, warm,
                    hyper=model.TrainHyper(epochs=1, seed=0))
        return {"prog": None, "prog_path": self.workdir / "train_g1.bprog",
                "served": None, "slices": 0}

    def serve(self, state, train_seed):
        """One slice of serving: regenerate the training set (it must come
        out the same), lower and verify the served model again, and send the
        next few batches of its validation set through the three routes."""
        s, sizes = self.sizes[self.key], self.sizes
        gen(self.rec, s["train"], 1, train_seed, s["slice_gen_repeats"])
        m, prog, val_set, lo = state["served"]
        again = lower_and_check(self.rec, m, self.workdir / "again.bprog",
                                s["verify_trials"], state["slices"], 1)
        self.rec.check(again == prog, "re-lowered program differs")
        n = s["slice_batches"] * sizes["route_batch"]
        routes(self.rec, m, prog, val_set.bits[lo:lo + n],
               val_set.labels[lo:lo + n], sizes["route_batch"])
        state["served"][3] = (lo + n) % (len(val_set) - len(val_set) % n)
        state["slices"] += 1

    def cycle(self, state, i):
        s, sizes = self.sizes[self.key], self.sizes
        train_seed = sub_seed(self.seed, 10 + 2 * i)
        train_set = gen(self.rec, s["train"], 1, train_seed)
        val_set = gen(self.rec, s["val"], 1, sub_seed(self.seed, 11 + 2 * i))
        first = state["served"] is None
        m, report = train_timed(
            self.rec, model.build_model(DESK, seed=0), train_set, val_set,
            model.TrainHyper(batch_size=512, seed=0), schedule=s["schedule"],
            between_epochs=None if first else
            lambda: self.serve(state, train_seed))
        self.rec.add("val_acc", report.best_val_acc)
        state["prog"] = lower_and_check(self.rec, m, state["prog_path"],
                                        s["verify_trials"], i,
                                        sizes["lower_repeats"])
        state["served"] = [m, state["prog"], val_set, 0]
        if first:
            # Nothing was served during the first training.
            self.serve(state, train_seed)


class InferG1(Workload):
    """A fixed g=1 checkpoint, lowered in setup; batches through the float,
    exact and program routes."""

    key = "infer_g1"

    def setup(self, k):
        s = self.sizes[self.key]
        _, m = load_checkpoint(self.rec, "infer_g1")
        path = self.workdir / "infer_g1.bprog"
        prog = lower_and_check(self.rec, m, path, s["verify_trials"], k,
                               self.sizes["lower_repeats"])
        return {"model": m, "prog": prog, "prog_path": path,
                "pool": gen(self.rec, s["pool"], 1, sub_seed(self.seed, 1)),
                "tuned": m.clone(), "tunes": 0,
                "tune_val": gen(self.rec, s["tune_val"], 1, sub_seed(self.seed, 2)),
                "next": 0}

    def cycle(self, state, i):
        s, sizes, pool = self.sizes[self.key], self.sizes, state["pool"]
        n = s["batches"] * sizes["route_batch"]
        lo = state["next"]
        state["next"] = (lo + n) % (len(pool) - len(pool) % n)
        self.rec.add("val_acc", routes(self.rec, state["model"], state["prog"],
                                       pool.bits[lo:lo + n],
                                       pool.labels[lo:lo + n],
                                       sizes["route_batch"]))
        # The served program is lowered and verified again each cycle; it
        # must come out the same.
        again = lower_and_check(self.rec, state["model"],
                                self.workdir / "again.bprog",
                                s["verify_trials"], i, sizes["lower_repeats"])
        self.rec.check(again == state["prog"], "re-lowered program differs")
        tune_step(self.rec, state, 1, self.seed, s, sizes)


class CompileG8(Workload):
    """A fixed paper-architecture checkpoint: lower, save/load, verify,
    count, then `ndlite eval` in-process on the checkpoint and program."""

    key = "compile_g8"
    flatten_width = 4096

    def setup(self, k):
        s = self.sizes[self.key]
        path, m = load_checkpoint(self.rec, "compile_g8")
        eval_set = gen(self.rec, s["eval"], 8, sub_seed(self.seed, 1))
        nds = self.workdir / "eval_g8.nds"
        dataset.save_dataset(eval_set, nds)
        return {"model": m, "ckpt": path, "nds": nds, "n": len(eval_set),
                "bits": eval_set.bits, "prog": None,
                "prog_path": self.workdir / "compile_g8.bprog",
                "tuned": m.clone(), "tunes": 0,
                "tune_val": gen(self.rec, s["tune_val"], 8, sub_seed(self.seed, 2))}

    def _eval(self, path, name, state):
        """`ndlite eval` in-process; returns (seconds, report results)."""
        report = self.workdir / f"{name}.report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(["eval", str(path), "--data", str(state["nds"]),
                           "--report", str(report)])
            seconds = time.perf_counter() - t0
        self.rec.check(rc == 0, f"ndlite eval {path} exited {rc}")
        return seconds, json.loads(report.read_text())["results"]

    def cycle(self, state, i):
        """Lower and verify, eval the checkpoint, eval the program: a tuning
        step follows each, so that tuning is sampled all through the run."""
        s, sizes, n = self.sizes[self.key], self.sizes, state["n"]
        state["prog"] = lower_and_check(self.rec, state["model"],
                                        state["prog_path"], s["verify_trials"],
                                        i, sizes["lower_repeats"])
        tune_step(self.rec, state, 8, self.seed, s, sizes)
        t0 = time.perf_counter()
        state["model"].scores(state["bits"])
        self.rec.rate("float_samples_per_s", n, time.perf_counter() - t0)
        t_ckpt, by_ckpt = self._eval(state["ckpt"], "ckpt", state)
        tune_step(self.rec, state, 8, self.seed, s, sizes)
        t_prog, by_prog = self._eval(state["prog_path"], "prog", state)
        self.rec.rate("exact_samples_per_s", n, t_ckpt)
        self.rec.rate("program_samples_per_s", n, t_prog)
        # The CLI runs a program as one unbatched batch over the whole set.
        self.rec.add("program_batch_ms", 1e3 * t_prog)
        self.rec.check(by_prog["confusion"] == by_ckpt["confusion"],
                       "program and checkpoint evals disagree")
        self.rec.add("val_acc", by_ckpt["accuracy"])
        tune_step(self.rec, state, 8, self.seed, s, sizes)


WORKLOADS = {"train-g1": TrainG1, "infer-g1": InferG1, "compile-g8": CompileG8}
