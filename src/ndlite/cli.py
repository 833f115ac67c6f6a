"""Command-line pipeline: generate data, train, quantize, lower, count,
evaluate, verify.

Every command resolves its parameters from CLI flags over an optional flat
key=value config file, records the resolved values (and the verbatim
config text) in a JSON report next to its primary output before doing any
work, and embeds the sha256 of every input file it consumed. The ND_SEED
environment variable overrides a config-file seed; an explicit --seed flag
overrides both. Exit codes: 0 success, 2 validation or shape error,
3 equivalence failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .dataset import DEFAULT_DELTA, gen_dataset, load_dataset, save_dataset
from .lowering import (load_program, lower_model, program_expressions,
                       run_program, save_program, structure_mismatch,
                       verify_equivalence)
from .model import (ModelConfig, TrainHyper, build_model, confusion,
                    evaluate, layer_specs, load_model, save_model, train)
from .opcount import count_model, format_csv, format_table, op_ratio
from .quant import QuantSchedule

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EQUIVALENCE = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# ------------------------------------------------------------ config/report

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_config(path):
    """Flat key=value lines; '#' starts a comment, blanks ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values, text


def _boolean(text):
    """A config-file boolean: true or false, in any case."""
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


class Resolver:
    """Flag > config file > default, recording every resolved value."""

    def __init__(self, args):
        self.args = args
        self.config_text = None
        self.values = {}
        if getattr(args, "config", None):
            self.values, self.config_text = read_config(args.config)
        self.resolved = {}

    def get(self, key, cast=str, default=None, required=False):
        flag = getattr(self.args, key, None)
        if flag is not None:
            value = flag
        elif key in self.values:
            try:
                value = cast(self.values[key])
            except ValueError as e:
                raise CliError(EXIT_VALIDATION, f"config file: {key} = "
                               f"{self.values[key]}: {e}") from None
        else:
            value = default
        if value is None and required:
            raise CliError(EXIT_VALIDATION, f"missing required option '{key}'")
        self.resolved[key] = value
        return value

    def seed(self, default=0):
        """--seed beats ND_SEED beats config-file seed."""
        flag = getattr(self.args, "seed", None)
        if flag is not None:
            value, source = flag, "flag"
        elif os.environ.get("ND_SEED"):
            value, source = int(os.environ["ND_SEED"], 0), "ND_SEED"
        elif "seed" in self.values:
            value, source = int(self.values["seed"]), "config"
        else:
            value, source = default, "default"
        self.resolved["seed"] = value
        self.resolved["seed_source"] = source
        return value


class Report:
    """Serialized before work starts, rewritten with results at the end."""

    def __init__(self, command, path, resolver):
        self.path = path
        self.payload = {"command": command, "resolved": resolver.resolved,
                        "inputs": {}, "outputs": {}, "results": {}}
        if resolver.config_text is not None:
            self.payload["config_file"] = resolver.args.config
            self.payload["config_text"] = resolver.config_text

    def start(self):
        self._t0 = time.perf_counter()
        self._write()

    def add_input(self, path):
        self.payload["inputs"][str(path)] = sha256_file(path)

    def add_output(self, path):
        self.payload["outputs"][str(path)] = sha256_file(path)

    def finish(self, **results):
        """Adds results, the seconds since start() and the process's peak
        resident memory."""
        self.payload["results"].update(results)
        self.payload["seconds"] = time.perf_counter() - self._t0
        # ru_maxrss is in KiB on Linux
        self.payload["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        self._write()

    def _write(self):
        if self.path is None:
            return
        with open(self.path, "w", encoding="utf-8") as f:
            json.dump(self.payload, f, indent=2, sort_keys=True)
            f.write("\n")


def _parse_delta(text):
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"delta must look like 0x0040/0x0000, got {text!r}")
    return tuple(int(p, 16) for p in parts)


def _parse_sizes(text):
    return tuple(int(p) for p in str(text).split(","))


def _detect_kind(path):
    with open(path, "rb") as f:
        magic = f.read(5)
    if magic[:4] == b"NDWF":
        return "checkpoint"
    if magic == b"BPROG":
        return "program"
    raise ValueError(f"{path}: neither a checkpoint nor a program file")


# ----------------------------------------------------------------- commands

def cmd_gen_data(args):
    r = Resolver(args)
    out = r.get("out", required=True)
    n_per_class = r.get("n_per_class", int, required=True)
    rounds = r.get("rounds", int, 6)
    group_size = r.get("group_size", int, 8)
    delta = _parse_delta(r.get("delta", str, "0x0040/0x0000"))
    r.resolved["delta"] = f"0x{delta[0]:04x}/0x{delta[1]:04x}"
    seed = r.seed()
    report = Report("gen-data", f"{out}.report.json", r)
    report.start()

    ds = gen_dataset(n_per_class, rounds, delta=delta, group_size=group_size,
                     seed=seed)
    save_dataset(ds, out)
    report.add_output(out)
    n_real = int(ds.labels.sum())
    print(f"wrote {out}: {len(ds)} samples "
          f"({n_real} real, {len(ds) - n_real} random), "
          f"rounds={rounds} group_size={group_size}")
    print(f"sha256 {sha256_file(out)}")
    report.finish(samples=len(ds), real=n_real, random=len(ds) - n_real)
    return EXIT_OK


def _model_config(r, group_size):
    return ModelConfig(
        group_size=group_size,
        channels=r.get("channels", int, 32),
        residual_blocks=r.get("residual_blocks", int, 1),
        dense_sizes=_parse_sizes(r.get("dense_sizes", str, "64,64")),
        decision_threshold=r.get("threshold", float, 0.505),
        hidden_activation=r.get("activation", str, "relu"))


def _hyper(r, seed):
    return TrainHyper(
        epochs=r.get("epochs", int, 20),
        batch_size=r.get("batch_size", int, 512),
        lr=r.get("lr", float, 1e-3),
        patience=r.get("patience", int, 5),
        seed=seed)


def _schedule(r, stage):
    warmup = r.get("warmup_epochs", int, 5)
    weights = r.get("weight_quant_epochs", int, 5)
    acts = r.get("act_quant_epochs", int, 10)
    if stage == "fp":
        return None
    if stage == "weights":
        return QuantSchedule(warmup, weights, 0)
    return QuantSchedule(warmup, weights, acts)


def _progress(n_samples):
    """model.train's on_epoch callback: one progress line per epoch on
    stderr."""
    def show(e):
        print(f"epoch {e['epoch']}: stage={e['stage']} loss={e['loss']:.4f} "
              f"train_acc={e['train_acc']:.4f} val_acc={e['val_acc']:.4f} "
              f"{e['seconds']:.2f}s "
              f"{n_samples / max(e['seconds'], 1e-9):.0f} samples/s",
              file=sys.stderr)
    return show


def cmd_train(args):
    r = Resolver(args)
    data_path = r.get("data", required=True)
    val_path = r.get("val_data", required=True)
    out = r.get("out", required=True)
    stage = r.get("quant_stage", str, "fp")
    if stage not in ("fp", "weights", "full"):
        raise ValueError(f"unknown quant stage {stage!r}")
    repeats = r.get("repeats", int, 1)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    seed = r.seed()

    train_set = load_dataset(data_path)
    val_set = load_dataset(val_path)
    cfg = _model_config(r, train_set.group_size)
    quant = _schedule(r, stage)
    hyper = _hyper(r, seed)
    report = Report("train", f"{out}.report.json", r)
    report.add_input(data_path)
    report.add_input(val_path)
    report.start()

    out_path = Path(out)
    runs = []
    for i in range(repeats):
        run_seed = seed + i
        model = build_model(cfg, seed=run_seed)
        hyper_i = TrainHyper(**{**hyper.__dict__, "seed": run_seed})
        model, train_report = train(model, train_set, val_set,
                                    hyper=hyper_i, quant=quant,
                                    on_epoch=_progress(len(train_set)))
        path = out_path if repeats == 1 else out_path.with_name(
            f"{out_path.stem}.r{i}{out_path.suffix}")
        save_model(model, path)
        report.add_output(path)
        acc, _ = evaluate(model, val_set)
        runs.append({"seed": run_seed, "path": str(path), "val_acc": acc,
                     "stage": model.stage,
                     "best_epoch": train_report.best_epoch,
                     "epochs": train_report.entries})
        print(f"run {i}: seed={run_seed} stage={model.stage} "
              f"val_acc={acc:.4f} -> {path}")
    mean_acc = float(np.mean([run["val_acc"] for run in runs]))
    print(f"mean val_acc over {repeats} run(s): {mean_acc:.4f}")
    report.finish(runs=runs, mean_val_acc=mean_acc)
    return EXIT_OK


def cmd_quantize(args):
    r = Resolver(args)
    ckpt = r.get("checkpoint", required=True)
    out = r.get("out", required=True)
    stage = r.get("stage", str, "full")
    data_path = r.get("data")
    val_path = r.get("val_data")
    epochs = r.get("epochs", int, 0)
    seed = r.seed()
    report = Report("quantize", f"{out}.report.json", r)
    report.add_input(ckpt)
    report.start()

    model = load_model(ckpt)
    model.set_stage(stage)
    results = {"stage": stage, "fine_tune_epochs": 0}
    if data_path is not None and epochs > 0:
        if val_path is None:
            raise CliError(EXIT_VALIDATION,
                           "fine-tuning needs val_data alongside data")
        train_set = load_dataset(data_path)
        val_set = load_dataset(val_path)
        report.add_input(data_path)
        report.add_input(val_path)
        hyper = TrainHyper(**{**_hyper(r, seed).__dict__, "epochs": epochs})
        model, train_report = train(model, train_set, val_set, hyper=hyper,
                                    on_epoch=_progress(len(train_set)))
        results["fine_tune_epochs"] = epochs
        results["best_epoch"] = train_report.best_epoch
        acc, _ = evaluate(model, val_set)
        results["val_acc"] = acc
        print(f"fine-tuned {epochs} epoch(s) at stage {stage}, "
              f"val_acc={acc:.4f}")
    save_model(model, out)
    report.add_output(out)
    print(f"wrote {out} at stage {model.stage}")
    report.finish(**results)
    return EXIT_OK


def _print_counterexample(ce):
    print("counterexample:", file=sys.stderr)
    for key, value in ce.items():
        if key == "input":
            packed = np.packbits(np.asarray(value, dtype=np.uint8).ravel())
            print(f"  input_bits_hex={packed.tobytes().hex()}",
                  file=sys.stderr)
        else:
            print(f"  {key}={value}", file=sys.stderr)


def _coverage(rep):
    return (f"{rep.trials_run} random trials, proven "
            f"{rep.exhaustive_channels}/{rep.total_channels} channels")


def _sparsity_lines(prog):
    lines = []
    for layer in prog.layers:
        live = np.count_nonzero(layer.fan_in)
        nnz = layer.fan_in.sum()
        lines.append(f"{layer.name}: {live}/{len(layer.channels)} live "
                     f"channels, {nnz} nonzero weights")
    return lines


def cmd_lower(args):
    r = Resolver(args)
    ckpt = r.get("checkpoint", required=True)
    out = r.get("out", required=True)
    theta_mode = r.get("theta_mode", str, "folded")
    fold_output = r.get("fold_output", _boolean, True)
    output_mode = r.get("output_mode", str, "threshold")
    trials = r.get("trials", int, 10_000)
    width = r.get("width", int, 9)
    seed = r.seed()
    report = Report("lower", f"{out}.report.json", r)
    report.add_input(ckpt)
    report.start()

    model = load_model(ckpt)
    prog = lower_model(model, theta_mode=theta_mode, fold_output=fold_output,
                       output_mode=output_mode)
    save_program(prog, out)
    report.add_output(out)
    for line in _sparsity_lines(prog):
        print(line)
    for warning in prog.warnings:
        print(f"warning: {warning}")
    exprs = [(ln, ci, f) for ln, ci, f in program_expressions(prog)
             if ln == "conv0"]
    for ln, ci, formula in exprs:
        print(f"{ln} ch={ci}: {formula}")

    rep = verify_equivalence(prog, model, trials=trials,
                             exhaustive_width=width, seed=seed)
    report.finish(verify_passed=rep.passed, trials_run=rep.trials_run,
                  exhaustive_channels=rep.exhaustive_channels,
                  total_channels=rep.total_channels, warnings=prog.warnings,
                  expressions=[f"{ln} ch={ci}: {f}" for ln, ci, f in exprs])
    if not rep.passed:
        print("equivalence verification FAILED", file=sys.stderr)
        _print_counterexample(rep.counterexample)
        return EXIT_EQUIVALENCE
    print(f"verified: {_coverage(rep)}")
    print(f"wrote {out}")
    return EXIT_OK


def _implied_config(prog):
    """The ModelConfig whose layer table the program's layers are, or None."""
    layers = prog.layers
    try:
        cfg = ModelConfig(group_size=prog.group_size,
                          channels=len(layers[0].channels),
                          residual_blocks=(len(layers) - 4) // 2,
                          dense_sizes=(len(layers[-3].channels),
                                       len(layers[-2].channels)))
    except (IndexError, ValueError):
        return None
    return None if structure_mismatch(prog, layer_specs(cfg)) else cfg


def cmd_count(args):
    r = Resolver(args)
    path = args.path
    dead = r.get("count_dead_indicators", _boolean, False)
    csv_out = r.get("csv")
    report = Report("count", args.report, r)
    report.add_input(path)
    report.start()

    kind = _detect_kind(path)
    sections = []
    if kind == "checkpoint":
        model = load_model(path)
        dense_total, dense_rows = count_model(model)
        sections.append(("dense", dense_total, dense_rows))
        if model.stage == "full":
            prog = lower_model(model)
            light_total, light_rows = count_model(
                prog, count_dead_indicators=dead)
            sections.append(("lightweight", light_total, light_rows))
    else:
        prog = load_program(path)
        light_total, light_rows = count_model(prog,
                                              count_dead_indicators=dead)
        sections.append(("lightweight", light_total, light_rows))
        implied = _implied_config(prog)
        if implied is not None:
            dense_total, dense_rows = count_model(implied)
            sections.insert(0, ("dense", dense_total, dense_rows))

    results = {}
    csv_parts = []
    for name, total, rows in sections:
        print(f"[{name}]")
        print(format_table(rows, total))
        print()
        results[name] = {comp: vars(cnt) for comp, cnt in rows}
        results[f"{name}_total"] = vars(total)
        csv_parts.append(f"# {name}\n" + format_csv(rows, total))
    if len(sections) == 2:
        ratio = op_ratio(sections[1][1], sections[0][1])
        print(f"lightweight/dense operation ratio: {ratio:.4f}")
        results["ratio"] = ratio
    if csv_out:
        with open(csv_out, "w", encoding="utf-8") as f:
            f.write("\n".join(csv_parts) + "\n")
        report.add_output(csv_out)
        print(f"wrote {csv_out}")
    report.finish(**results)
    return EXIT_OK


def cmd_eval(args):
    r = Resolver(args)
    path = args.path
    data_path = r.get("data", required=True)
    threshold = r.get("threshold", float)
    report = Report("eval", args.report, r)
    report.add_input(path)
    report.add_input(data_path)
    report.start()

    ds = load_dataset(data_path)
    if len(ds) == 0:
        raise CliError(EXIT_VALIDATION, "cannot evaluate on an empty dataset")
    kind = _detect_kind(path)
    if kind == "program":
        if threshold is not None:
            raise CliError(EXIT_VALIDATION,
                           "programs have their decision threshold folded "
                           "in; re-lower the checkpoint to change it")
        prog = load_program(path)
        accuracy, counts = confusion(run_program(prog, ds.bits), ds.labels)
    else:
        model = load_model(path)
        if threshold is not None and not 0.0 < threshold < 1.0:
            # degenerate rule: score >= t is constant on [0, 1] scores
            pred = np.full(len(ds), 1 if threshold <= 0.0 else 0,
                           dtype=np.uint8)
            accuracy, counts = confusion(pred, ds.labels)
        else:
            if threshold is not None:
                model.cfg.decision_threshold = threshold
            accuracy, counts = evaluate(model, ds)
    print(f"accuracy {accuracy:.6f} on {len(ds)} samples")
    print(" ".join(f"{k}={counts[k]}" for k in ("tp", "tn", "fp", "fn")))
    report.finish(accuracy=accuracy, confusion=counts, samples=len(ds))
    return EXIT_OK


def cmd_verify(args):
    r = Resolver(args)
    ckpt = r.get("checkpoint", required=True)
    prog_path = r.get("program", required=True)
    trials = r.get("trials", int, 10_000)
    width = r.get("width", int, 9)
    seed = r.seed()
    report = Report("verify", args.report, r)
    report.add_input(ckpt)
    report.add_input(prog_path)
    report.start()

    model = load_model(ckpt)
    prog = load_program(prog_path)
    rep = verify_equivalence(prog, model, trials=trials,
                             exhaustive_width=width, seed=seed)
    report.finish(passed=rep.passed, trials_run=rep.trials_run,
                  exhaustive_channels=rep.exhaustive_channels,
                  total_channels=rep.total_channels)
    if not rep.passed:
        print("equivalence verification FAILED", file=sys.stderr)
        _print_counterexample(rep.counterexample)
        return EXIT_EQUIVALENCE
    print(f"equivalent: {_coverage(rep)}")
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--seed", type=int, help="RNG seed (beats ND_SEED)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="ndlite",
        description="SPECK32/64 distinguisher pipeline: data, training, "
                    "ternary quantization, Boolean lowering, op counting.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="generate a labeled dataset file")
    _add_common(sp)
    sp.add_argument("--out")
    sp.add_argument("--n-per-class", type=int, dest="n_per_class")
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--group-size", type=int, dest="group_size")
    sp.add_argument("--delta", help="input difference, e.g. 0x0040/0x0000")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train distinguisher checkpoint(s)")
    _add_common(sp)
    sp.add_argument("--data")
    sp.add_argument("--val-data", dest="val_data")
    sp.add_argument("--out")
    sp.add_argument("--quant-stage", dest="quant_stage",
                    choices=("fp", "weights", "full"))
    sp.add_argument("--repeats", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--lr", type=float)
    sp.add_argument("--patience", type=int)
    sp.add_argument("--channels", type=int)
    sp.add_argument("--residual-blocks", type=int, dest="residual_blocks")
    sp.add_argument("--dense-sizes", dest="dense_sizes")
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--activation")
    sp.add_argument("--warmup-epochs", type=int, dest="warmup_epochs")
    sp.add_argument("--weight-quant-epochs", type=int,
                    dest="weight_quant_epochs")
    sp.add_argument("--act-quant-epochs", type=int, dest="act_quant_epochs")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("quantize",
                        help="move a checkpoint to a quantization stage")
    _add_common(sp)
    sp.add_argument("--checkpoint")
    sp.add_argument("--out")
    sp.add_argument("--stage", choices=("fp", "weights", "full"))
    sp.add_argument("--data")
    sp.add_argument("--val-data", dest="val_data")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--lr", type=float)
    sp.add_argument("--patience", type=int)
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("lower",
                        help="compile a quantized checkpoint to a program")
    _add_common(sp)
    sp.add_argument("--checkpoint")
    sp.add_argument("--out")
    sp.add_argument("--theta-mode", dest="theta_mode",
                    choices=("folded", "zero"))
    sp.add_argument("--fold-output", dest="fold_output",
                    action=argparse.BooleanOptionalAction)
    sp.add_argument("--output-mode", dest="output_mode",
                    choices=("threshold", "argmax"))
    sp.add_argument("--trials", type=int)
    sp.add_argument("--width", type=int)
    sp.set_defaults(func=cmd_lower)

    sp = sub.add_parser("count", help="operation-count report")
    _add_common(sp)
    sp.add_argument("path", help="checkpoint or program file")
    sp.add_argument("--count-dead-indicators", dest="count_dead_indicators",
                    action=argparse.BooleanOptionalAction)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.add_argument("--report", help="write a JSON report here")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("eval", help="accuracy of a checkpoint or program")
    _add_common(sp)
    sp.add_argument("path", help="checkpoint or program file")
    sp.add_argument("--data")
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--report", help="write a JSON report here")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("verify",
                        help="re-check program/checkpoint equivalence")
    _add_common(sp)
    sp.add_argument("--checkpoint")
    sp.add_argument("--program")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--width", type=int)
    sp.add_argument("--report", help="write a JSON report here")
    sp.set_defaults(func=cmd_verify)

    return p


@functools.cache
def _parser():
    """The parser of main, built on its first call (2-3 ms) and reused:
    parse_args does not change it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
