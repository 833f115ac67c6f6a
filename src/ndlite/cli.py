"""Command-line pipeline: generate data, train, quantize, lower, count,
evaluate, verify.

Each command's options are declared once, in COMMANDS: key -> (type,
default[, help]). The table gives each option its --flag and its key in an
optional flat key=value config file; a flag beats the config file, which
beats the default. Every command records every resolved value (and the
verbatim config text) in a JSON report next to its primary output before
doing any work, and embeds the sha256 of every input file it consumed. The
ND_SEED environment variable overrides a config-file seed; an explicit
--seed flag overrides both. Exit codes: 0 success, 2 validation or shape
error, 3 equivalence failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
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
from .quant import STAGES, QuantSchedule

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EQUIVALENCE = 3
EXIT_IO = 4

REQUIRED = object()  # the default of an option that has none


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
    """A config-file boolean: true or false, in any case. As a flag,
    --key or --no-key."""
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _count(text):
    """A non-negative integer, such as a number of epochs or trials."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _rate(text):
    """A finite number > 0, such as a learning rate."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return value


def _number(text):
    """Any number but NaN; -inf and inf included."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(
            f"expected a number other than NaN, got {text!r}")
    return value


def _sizes(text):
    """Integers >= 1 separated by commas, such as layer widths."""
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"expected integers >= 1 separated by commas, got {text!r}")
    return sizes


def _delta(text):
    """An input difference, recorded as 0xLLLL/0xRRRR."""
    try:
        words = [int(p, 16) for p in text.split("/")]
    except ValueError:
        words = []
    if len(words) != 2:
        raise argparse.ArgumentTypeError(
            f"expected a difference such as 0x0040/0x0000, got {text!r}")
    return "/".join(f"0x{w:04x}" for w in words)


def _config_value(key, kind, text):
    """A config-file value, read as the option's flag reads it."""
    try:
        if not isinstance(kind, tuple):
            return kind(text)
        if text in kind:
            return text
        raise ValueError(f"expected one of {', '.join(kind)}")
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise CliError(EXIT_VALIDATION,
                       f"config file: {key} = {text}: {e}") from None


def _seed_env(text):
    """The seed that ND_SEED holds: an integer, in any base Python reads."""
    try:
        return int(text, 0)
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"ND_SEED = {text}: expected an "
                       "integer seed") from None


def resolve(args):
    """(o, report): every option of args' command, flag > config file >
    default, as the namespace o, and the command's Report, which records
    them. A set ND_SEED sits between --seed and the config file's seed. A
    config-file key that no command takes is an error; one that another
    command takes is ignored, so commands can share one file."""
    config, text = read_config(args.config) if args.config else ({}, None)
    for key in config:
        if not any(key in options for *_, options in COMMANDS.values()):
            raise CliError(EXIT_VALIDATION,
                           f"config file: no command takes {key}")
    o = argparse.Namespace()
    for key, (kind, default, *_) in args.options.items():
        flag = getattr(args, key)
        if flag is not None:
            value, source = flag, "flag"
        elif key == "seed" and os.environ.get("ND_SEED"):
            value, source = _seed_env(os.environ["ND_SEED"]), "ND_SEED"
        elif key in config:
            value, source = _config_value(key, kind, config[key]), "config"
        elif default is REQUIRED:
            raise CliError(EXIT_VALIDATION, f"missing required option '{key}'")
        else:
            value, source = default, "default"
        setattr(o, key, value)
        if key == "seed":
            o.seed_source = source
    path = o.report if "report" in args.options else f"{o.out}.report.json"
    return o, Report(args.command, path, vars(o), args.config, text)


class Report:
    """Serialized before work starts, rewritten with results at the end."""

    def __init__(self, command, path, resolved, config_file, config_text):
        self.path = path
        self.payload = {"command": command, "resolved": resolved,
                        "inputs": {}, "outputs": {}, "results": {}}
        if config_text is not None:
            self.payload["config_file"] = config_file
            self.payload["config_text"] = config_text

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
    o, report = resolve(args)
    report.start()

    delta = tuple(int(w, 16) for w in o.delta.split("/"))
    ds = gen_dataset(o.n_per_class, o.rounds, delta=delta,
                     group_size=o.group_size, seed=o.seed)
    save_dataset(ds, o.out)
    report.add_output(o.out)
    n_real = int(ds.labels.sum())
    print(f"wrote {o.out}: {len(ds)} samples "
          f"({n_real} real, {len(ds) - n_real} random), "
          f"rounds={o.rounds} group_size={o.group_size}")
    print(f"sha256 {sha256_file(o.out)}")
    report.finish(samples=len(ds), real=n_real, random=len(ds) - n_real)
    return EXIT_OK


def _hyper(o, seed):
    # the keys of _HYPER are fields of TrainHyper
    return TrainHyper(seed=seed, **{key: getattr(o, key) for key in _HYPER})


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
    o, report = resolve(args)
    if o.repeats < 1:
        raise ValueError("repeats must be >= 1")

    train_set = load_dataset(o.data)
    val_set = load_dataset(o.val_data)
    cfg = ModelConfig(
        group_size=train_set.group_size, channels=o.channels,
        residual_blocks=o.residual_blocks,
        dense_sizes=o.dense_sizes,
        decision_threshold=o.threshold, hidden_activation=o.activation)
    quant = None if o.quant_stage == "fp" else QuantSchedule(
        o.warmup_epochs, o.weight_quant_epochs,
        o.act_quant_epochs if o.quant_stage == "full" else 0)
    report.add_input(o.data)
    report.add_input(o.val_data)
    report.start()

    out_path = Path(o.out)
    runs = []
    for i in range(o.repeats):
        run_seed = o.seed + i
        model = build_model(cfg, seed=run_seed)
        model, train_report = train(model, train_set, val_set,
                                    hyper=_hyper(o, run_seed), quant=quant,
                                    on_epoch=_progress(len(train_set)))
        path = out_path if o.repeats == 1 else out_path.with_name(
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
    print(f"mean val_acc over {o.repeats} run(s): {mean_acc:.4f}")
    report.finish(runs=runs, mean_val_acc=mean_acc)
    return EXIT_OK


def cmd_quantize(args):
    o, report = resolve(args)
    fine_tune = o.data is not None and o.epochs > 0
    if fine_tune and o.val_data is None:
        raise CliError(EXIT_VALIDATION,
                       "fine-tuning needs val_data alongside data")
    report.add_input(o.checkpoint)
    report.start()

    model = load_model(o.checkpoint)
    model.set_stage(o.stage)
    results = {"stage": o.stage, "fine_tune_epochs": 0}
    if fine_tune:
        train_set = load_dataset(o.data)
        val_set = load_dataset(o.val_data)
        report.add_input(o.data)
        report.add_input(o.val_data)
        model, train_report = train(model, train_set, val_set,
                                    hyper=_hyper(o, o.seed),
                                    on_epoch=_progress(len(train_set)))
        results["fine_tune_epochs"] = o.epochs
        results["best_epoch"] = train_report.best_epoch
        acc, _ = evaluate(model, val_set)
        results["val_acc"] = acc
        print(f"fine-tuned {o.epochs} epoch(s) at stage {o.stage}, "
              f"val_acc={acc:.4f}")
    save_model(model, o.out)
    report.add_output(o.out)
    print(f"wrote {o.out} at stage {model.stage}")
    report.finish(**results)
    return EXIT_OK


def _verify(prog, model, o, report, passed_key, **results):
    """Checks prog against model with o's trials, width and seed, and
    finishes the report with the outcome (under passed_key) and results.
    Returns the coverage line; on a failure, prints FAILED and the
    counterexample on stderr and returns None."""
    rep = verify_equivalence(prog, model, trials=o.trials,
                             exhaustive_width=o.width, seed=o.seed)
    report.finish(**{passed_key: rep.passed}, trials_run=rep.trials_run,
                  exhaustive_channels=rep.exhaustive_channels,
                  total_channels=rep.total_channels, **results)
    if rep.passed:
        return (f"{rep.trials_run} random trials, proven "
                f"{rep.exhaustive_channels}/{rep.total_channels} channels")
    print("equivalence verification FAILED", file=sys.stderr)
    print("counterexample:", file=sys.stderr)
    for key, value in rep.counterexample.items():
        if key == "input":
            packed = np.packbits(np.asarray(value, dtype=np.uint8).ravel())
            print(f"  input_bits_hex={packed.tobytes().hex()}",
                  file=sys.stderr)
        else:
            print(f"  {key}={value}", file=sys.stderr)
    return None


def _sparsity_lines(prog):
    lines = []
    for layer in prog.layers:
        live = np.count_nonzero(layer.fan_in)
        nnz = layer.fan_in.sum()
        lines.append(f"{layer.name}: {live}/{len(layer.channels)} live "
                     f"channels, {nnz} nonzero weights")
    return lines


def cmd_lower(args):
    o, report = resolve(args)
    report.add_input(o.checkpoint)
    report.start()

    model = load_model(o.checkpoint)
    prog = lower_model(model)
    save_program(prog, o.out)
    report.add_output(o.out)
    for line in _sparsity_lines(prog):
        print(line)
    for warning in prog.warnings:
        print(f"warning: {warning}")
    exprs = [f"{ln} ch={ci}: {f}" for ln, ci, f in program_expressions(prog)
             if ln == "conv0"]
    for expr in exprs:
        print(expr)

    coverage = _verify(prog, model, o, report, "verify_passed",
                       warnings=prog.warnings, expressions=exprs)
    if coverage is None:
        return EXIT_EQUIVALENCE
    print(f"verified: {coverage}")
    print(f"wrote {o.out}")
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
    o, report = resolve(args)
    report.add_input(o.path)
    report.start()

    if _detect_kind(o.path) == "checkpoint":
        model = load_model(o.path)
        cfg = model.cfg
        prog = lower_model(model) if model.stage == "full" else None
    else:
        prog = load_program(o.path)
        cfg = _implied_config(prog)
    sections = [(name, *count_model(
                    obj, count_dead_indicators=o.count_dead_indicators))
                for name, obj in (("dense", cfg), ("lightweight", prog))
                if obj is not None]

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
    if o.csv:
        with open(o.csv, "w", encoding="utf-8") as f:
            f.write("\n".join(csv_parts) + "\n")
        report.add_output(o.csv)
        print(f"wrote {o.csv}")
    report.finish(**results)
    return EXIT_OK


def cmd_eval(args):
    o, report = resolve(args)
    report.add_input(o.path)
    report.add_input(o.data)
    report.start()

    ds = load_dataset(o.data)
    if len(ds) == 0:
        raise CliError(EXIT_VALIDATION, "cannot evaluate on an empty dataset")
    kind = _detect_kind(o.path)
    if kind == "program":
        if o.threshold is not None:
            raise CliError(EXIT_VALIDATION,
                           "programs have their decision threshold folded "
                           "in; re-lower the checkpoint to change it")
        prog = load_program(o.path)
        accuracy, counts = confusion(run_program(prog, ds.bits), ds.labels)
    else:
        model = load_model(o.path)
        if o.threshold is not None and not 0.0 < o.threshold < 1.0:
            # degenerate rule: score >= t is constant on [0, 1] scores
            pred = np.full(len(ds), 1 if o.threshold <= 0.0 else 0,
                           dtype=np.uint8)
            accuracy, counts = confusion(pred, ds.labels)
        else:
            if o.threshold is not None:
                model.cfg.decision_threshold = o.threshold
            accuracy, counts = evaluate(model, ds)
    print(f"accuracy {accuracy:.6f} on {len(ds)} samples")
    print(" ".join(f"{k}={counts[k]}" for k in ("tp", "tn", "fp", "fn")))
    report.finish(accuracy=accuracy, confusion=counts, samples=len(ds))
    return EXIT_OK


def cmd_verify(args):
    o, report = resolve(args)
    report.add_input(o.checkpoint)
    report.add_input(o.program)
    report.start()

    model = load_model(o.checkpoint)
    prog = load_program(o.program)
    coverage = _verify(prog, model, o, report, "passed")
    if coverage is None:
        return EXIT_EQUIVALENCE
    print(f"equivalent: {coverage}")
    return EXIT_OK


# ------------------------------------------------------------------ options

# Option groups that more than one command takes.
_SEED = {"seed": (int, TrainHyper.seed, "RNG seed (beats ND_SEED)")}
_HYPER = {"epochs": (_count, TrainHyper.epochs),
          "batch_size": (_count, TrainHyper.batch_size),
          "lr": (_rate, TrainHyper.lr),
          "patience": (_count, TrainHyper.patience)}
_VERIFY = {"trials": (_count, 10_000, "random whole-network trials"),
           "width": (_count, 9, "enumerate every sum of channels with at "
                                "most this many live input bits")}
_REPORT = {"report": (str, None, "write a JSON report here")}
_PATH = {"path": (str, REQUIRED, "checkpoint or program file")}

# command -> (function, help, options); an option is key -> (type, default
# [, help]). The type reads both the flag and the config-file value; a
# tuple of names is a choice, _boolean a --key/--no-key flag. "path" is the
# command's positional argument.
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a labeled dataset file", {
        "out": (str, REQUIRED),
        "n_per_class": (_count, REQUIRED),
        "rounds": (_count, 6),
        "group_size": (_count, ModelConfig.group_size),
        "delta": (_delta, _delta("/".join(map(hex, DEFAULT_DELTA))),
                  "input difference"),
        **_SEED}),
    "train": (cmd_train, "train distinguisher checkpoint(s)", {
        "data": (str, REQUIRED),
        "val_data": (str, REQUIRED),
        "out": (str, REQUIRED),
        "quant_stage": (STAGES, "fp"),
        "repeats": (_count, 1),
        **_HYPER,
        "channels": (_count, ModelConfig.channels),
        "residual_blocks": (_count, ModelConfig.residual_blocks),
        "dense_sizes": (_sizes, ModelConfig.dense_sizes),
        "threshold": (float, ModelConfig.decision_threshold),
        "activation": (str, ModelConfig.hidden_activation),
        "warmup_epochs": (_count, QuantSchedule.warmup_epochs),
        "weight_quant_epochs": (_count, QuantSchedule.weight_quant_epochs),
        "act_quant_epochs": (_count, QuantSchedule.act_quant_epochs),
        **_SEED}),
    "quantize": (cmd_quantize, "move a checkpoint to a quantization stage", {
        "checkpoint": (str, REQUIRED),
        "out": (str, REQUIRED),
        "stage": (STAGES, "full"),
        "data": (str, None, "fine-tune on this dataset"),
        "val_data": (str, None),
        **_HYPER,
        "epochs": (_count, 0, "fine-tuning epochs"),
        **_SEED}),
    "lower": (cmd_lower, "compile a quantized checkpoint to a program", {
        "checkpoint": (str, REQUIRED),
        "out": (str, REQUIRED),
        **_VERIFY,
        **_SEED}),
    "count": (cmd_count, "operation-count report", {
        **_PATH,
        "count_dead_indicators": (_boolean, False),
        "csv": (str, None, "also write the table as CSV"),
        **_REPORT}),
    "eval": (cmd_eval, "accuracy of a checkpoint or program", {
        **_PATH,
        "data": (str, REQUIRED),
        "threshold": (_number, None, "a checkpoint's decision threshold "
                                   "(default: its own)"),
        **_REPORT}),
    "verify": (cmd_verify, "re-check program/checkpoint equivalence", {
        "checkpoint": (str, REQUIRED),
        "program": (str, REQUIRED),
        **_VERIFY,
        **_REPORT,
        **_SEED}),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="ndlite",
        description="SPECK32/64 distinguisher pipeline: data, training, "
                    "ternary quantization, Boolean lowering, op counting.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, about, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(func=func, options=options)
        sp.add_argument("--config", help="flat key=value config file")
        for key, (kind, default, *text) in options.items():
            if default is REQUIRED:
                text.append("(required)")
            elif default is not None:
                text.append(f"(default: {default})")
            if key == "path":
                names, how = [key], {"nargs": "?"}
            else:
                names, how = ["--" + key.replace("_", "-")], {}
            if kind is _boolean:
                how["action"] = argparse.BooleanOptionalAction
            elif isinstance(kind, tuple):
                how["choices"] = kind
            else:
                how["type"] = kind
            sp.add_argument(*names, help=" ".join(text), **how)
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
