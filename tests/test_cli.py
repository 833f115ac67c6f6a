"""End-to-end command-line tests: exit codes, determinism, reports."""

import contextlib
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ndlite.cli
from ndlite import dataset, lowering
from ndlite.checkpoint import load_weights, save_weights
from ndlite.cli import _implied_config, main, sha256_file
from ndlite.dataset import load_dataset, save_dataset
from ndlite.lowering import (load_program, lower_model, save_program,
                             structure_mismatch)
from ndlite.model import (evaluate, exact_bit_forward, layer_specs,
                          load_model, save_model)
from ndlite.model import ModelConfig, TrainHyper
from ndlite.quant import QuantSchedule

from test_lowering import (_planted_conv0_model, _raise_theta,
                           antisymmetrize_output, damaged, saved_programs_in,
                           set_channel)
from test_model import randomized_quantized_model, small_cfg


def run(argv):
    return main([str(a) for a in argv])


def read_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_data(work):
    """Two small 3-round g=1 datasets (train/val)."""
    paths = {}
    for name, seed in (("train", 11), ("val", 12)):
        path = work / f"{name}.nds"
        code = run(["gen-data", "--out", path, "--n-per-class", 100,
                    "--rounds", 3, "--group-size", 1, "--seed", seed])
        assert code == 0
        paths[name] = path
    return paths


@pytest.fixture(scope="module")
def fp_ckpt(work, tiny_data):
    """One-epoch floating-point checkpoint on the tiny data."""
    out = work / "fp.ndwf"
    code = run(["train", "--data", tiny_data["train"],
                "--val-data", tiny_data["val"], "--out", out,
                "--epochs", 1, "--batch-size", 50, "--channels", 4,
                "--residual-blocks", 1, "--dense-sizes", "8,8",
                "--seed", 0])
    assert code == 0
    return out


# ----------------------------------------------------------------- gen-data

def test_gen_data_report_and_content(work):
    out = work / "a.nds"
    assert run(["gen-data", "--out", out, "--n-per-class", 50,
                "--rounds", 3, "--group-size", 1, "--seed", 7]) == 0
    ds = load_dataset(out)
    assert len(ds) == 100 and ds.group_size == 1
    rep = read_report(f"{out}.report.json")
    assert rep["resolved"]["seed"] == 7
    assert rep["resolved"]["seed_source"] == "flag"
    assert rep["outputs"][str(out)] == sha256_file(out)
    assert rep["results"]["real"] == 50


def test_gen_data_deterministic(work):
    digests = []
    for name in ("d1.nds", "d2.nds"):
        out = work / name
        assert run(["gen-data", "--out", out, "--n-per-class", 40,
                    "--rounds", 3, "--group-size", 1, "--seed", 5]) == 0
        digests.append(sha256_file(out))
    assert digests[0] == digests[1]


def test_nd_seed_env_between_flag_and_config(work, monkeypatch):
    out = work / "env.nds"
    monkeypatch.setenv("ND_SEED", "9")
    assert run(["gen-data", "--out", out, "--n-per-class", 10,
                "--rounds", 3, "--group-size", 1]) == 0
    rep = read_report(f"{out}.report.json")
    assert rep["resolved"]["seed"] == 9
    assert rep["resolved"]["seed_source"] == "ND_SEED"
    # explicit flag still wins over the environment
    assert run(["gen-data", "--out", out, "--n-per-class", 10,
                "--rounds", 3, "--group-size", 1, "--seed", 3]) == 0
    rep = read_report(f"{out}.report.json")
    assert rep["resolved"]["seed"] == 3
    assert rep["resolved"]["seed_source"] == "flag"


def test_config_file_with_flag_override(work):
    cfg = work / "gen.cfg"
    cfg.write_text("# tiny dataset\nn_per_class = 30\nrounds = 3\n"
                   "group_size = 1\nseed = 4\n")
    out = work / "cfg.nds"
    assert run(["gen-data", "--config", cfg, "--out", out,
                "--n-per-class", 40]) == 0
    ds = load_dataset(out)
    assert len(ds) == 80                       # flag beat the file
    rep = read_report(f"{out}.report.json")
    assert rep["resolved"]["rounds"] == 3      # file beat the default
    assert rep["resolved"]["seed_source"] == "config"
    assert "n_per_class = 30" in rep["config_text"]


def test_config_key_no_command_takes_exits_2(tmp_path, quant_ckpt, capsys):
    """A config-file key that no command takes exits 2 naming it, before
    the report is written; a key of another command is ignored."""
    cfg, rpt = tmp_path / "typo.cfg", tmp_path / "count.json"
    cfg.write_text("epocs = 3\n")
    capsys.readouterr()
    assert run(["count", quant_ckpt, "--config", cfg, "--report", rpt]) == 2
    err = capsys.readouterr().err
    assert "no command takes epocs" in err and "Traceback" not in err
    assert not rpt.exists()
    cfg.write_text("epochs = 3\n")
    assert run(["count", quant_ckpt, "--config", cfg, "--report", rpt]) == 0


# ------------------------------------------------------------------ options

def _parsed(argv):
    return ndlite.cli._parser().parse_args([str(a) for a in argv])


# two distinct texts of each option type; a choice takes its last and first
_SAMPLES = {int: ("5", "6"), float: ("0.25", "0.75"), str: ("v.bin", "w.bin"),
            ndlite.cli._rate: ("0.25", "0.75"),
            ndlite.cli._number: ("inf", "0.75"),
            ndlite.cli._count: ("3", "4"), ndlite.cli._sizes: ("8,8", "6,5"),
            ndlite.cli._delta: ("0x1/0x2", "0x3/0x4"),
            ndlite.cli._boolean: ("false", "true")}


def _samples(kind):
    return (kind[-1], kind[0]) if isinstance(kind, tuple) else _SAMPLES[kind]


def _flag(key, kind, text):
    """The command-line form of key = text."""
    if key == "path":
        return [text]
    flag = key.replace("_", "-")
    if kind is ndlite.cli._boolean:
        return [f"--{flag}" if text == "true" else f"--no-{flag}"]
    return [f"--{flag}", text]


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, _, options) in ndlite.cli.COMMANDS.items()
    for key in options])
def test_every_option_as_flag_or_config_line(tmp_path, monkeypatch, command,
                                             key):
    """Each declared option given as a flag and as a config line records
    the same value; the flag beats a config line that gives another."""
    monkeypatch.delenv("ND_SEED", raising=False)
    options = ndlite.cli.COMMANDS[command][2]
    kind = options[key][0]
    value, other = _samples(kind)
    required = [f"{k} = {_samples(spec[0])[0]}" for k, spec in options.items()
                if spec[1] is ndlite.cli.REQUIRED and k != key]
    resolved = {}
    for name, line, flag in (("flag", other, _flag(key, kind, value)),
                             ("config", value, []), ("other", other, [])):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("\n".join(required + [f"{key} = {line}"]) + "\n")
        o, _ = ndlite.cli.resolve(_parsed([command, *flag, "--config", cfg]))
        resolved[name] = {k: v for k, v in vars(o).items()
                          if k != "seed_source"}
    assert resolved["flag"] == resolved["config"]
    assert resolved["flag"][key] != resolved["other"][key]


def test_defaults_are_the_library_defaults(monkeypatch):
    monkeypatch.delenv("ND_SEED", raising=False)
    o, _ = ndlite.cli.resolve(_parsed(["train", "--data", "d.nds",
                                       "--val-data", "v.nds", "--out", "m"]))
    assert ModelConfig(channels=o.channels, residual_blocks=o.residual_blocks,
                       dense_sizes=o.dense_sizes,
                       decision_threshold=o.threshold,
                       hidden_activation=o.activation) == ModelConfig()
    assert TrainHyper(o.epochs, o.batch_size, o.lr, patience=o.patience,
                      seed=o.seed) == TrainHyper()
    assert QuantSchedule(o.warmup_epochs, o.weight_quant_epochs,
                         o.act_quant_epochs) == QuantSchedule()
    o, _ = ndlite.cli.resolve(_parsed(["quantize", "--checkpoint", "c",
                                       "--out", "q"]))
    hyper = TrainHyper()  # quantize's epochs are fine-tuning epochs
    assert (o.epochs, o.batch_size, o.lr, o.patience, o.seed) == (
        0, hyper.batch_size, hyper.lr, hyper.patience, hyper.seed)
    o, _ = ndlite.cli.resolve(_parsed(["gen-data", "--out", "x.nds",
                                       "--n-per-class", 1]))
    assert tuple(int(w, 16) for w in o.delta.split("/")) == \
        dataset.DEFAULT_DELTA
    assert o.group_size == ModelConfig().group_size


@pytest.mark.parametrize("argv, key", [
    (["gen-data", "--out", "neg.nds", "--n-per-class", 10], "rounds"),
    (["train", "--data", "d.nds", "--val-data", "v.nds", "--out", "neg.ndwf"],
     "epochs"),
    (["quantize", "--checkpoint", "c.ndwf", "--out", "neg.ndwf"], "patience"),
    (["lower", "--checkpoint", "c.ndwf", "--out", "neg.bprog"], "trials"),
    (["verify", "--checkpoint", "c.ndwf", "--program", "p.bprog"], "width")])
def test_negative_count_exits_2_naming_its_key(tmp_path, monkeypatch, capsys,
                                               argv, key):
    """A negative count exits 2 before any work, as a flag and as a config
    line, and the message names the option."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(f"{key} = -5\n")
    flag = "--" + key.replace("_", "-")
    for extra, named in (([flag, -5], flag), (["--config", cfg], f"{key} = -5")):
        capsys.readouterr()
        assert run(argv + extra) == 2
        err = capsys.readouterr().err
        assert named in err and "integer >= 0" in err, err
    assert sorted(os.listdir(tmp_path)) == ["neg.cfg"]


@pytest.mark.parametrize("bad", ["8,x", "8,0", "8,-1", "8,", ""])
def test_bad_dense_sizes_exit_2_naming_the_option(tmp_path, monkeypatch,
                                                 capsys, bad):
    """dense_sizes that are not integers >= 1 separated by commas exit 2
    before any work, as a flag and as a config line, and the message names
    the option and the value."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"dense_sizes = {bad}\n")
    argv = ["train", "--data", "d.nds", "--val-data", "v.nds", "--out",
            "bad.ndwf"]
    for extra, named in ((["--dense-sizes", bad], "--dense-sizes"),
                         (["--config", cfg], f"dense_sizes = {bad}")):
        capsys.readouterr()
        assert run(argv + extra) == 2
        err = capsys.readouterr().err
        assert named in err and f"got {bad!r}" in err, err
        assert "invalid literal" not in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]


@pytest.mark.parametrize("argv, key, bad", [
    (["train", "--data", "d.nds", "--val-data", "v.nds", "--out", "b.ndwf"],
     "lr", bad) for bad in ("nan", "inf", "0", "-1e-3", "x")] + [
    (["quantize", "--checkpoint", "c.ndwf", "--out", "b.ndwf"], "lr", "nan"),
    (["eval", "c.ndwf", "--data", "v.nds"], "threshold", "nan"),
    (["eval", "c.ndwf", "--data", "v.nds"], "threshold", "x")])
def test_nan_rate_or_threshold_exits_2_naming_it(tmp_path, monkeypatch,
                                                 capsys, argv, key, bad):
    """A learning rate is a finite number > 0 and eval's threshold any
    number but NaN: another value exits 2 before any work, as a flag and
    as a config line, naming the option and the value."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {bad}\n")
    flag = "--" + key
    for extra, named in (([f"{flag}={bad}"], flag), (["--config", cfg],
                                                     f"{key} = {bad}")):
        capsys.readouterr()
        assert run(argv + extra) == 2
        err = capsys.readouterr().err
        assert named in err and repr(bad) in err, err
        assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]


def test_nd_seed_that_is_no_integer_exits_2_naming_it(tmp_path, monkeypatch,
                                                      capsys):
    """ND_SEED is an integer in any base Python reads; another value exits
    2 before any work, naming the variable and the value."""
    monkeypatch.chdir(tmp_path)
    argv = ["gen-data", "--out", "s.nds", "--n-per-class", 2,
            "--rounds", 3, "--group-size", 1]
    monkeypatch.setenv("ND_SEED", "abc")
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "ND_SEED = abc" in err and "invalid literal" not in err, err
    assert os.listdir(tmp_path) == []
    monkeypatch.setenv("ND_SEED", "0x10")
    assert run(argv) == 0
    assert read_report("s.nds.report.json")["resolved"]["seed"] == 16


def test_count_and_eval_take_no_seed(quant_ckpt, tiny_data):
    assert run(["count", quant_ckpt, "--seed", 1]) == 2
    assert run(["eval", quant_ckpt, "--data", tiny_data["val"],
                "--seed", 1]) == 2


@pytest.mark.parametrize("command", list(ndlite.cli.COMMANDS))
def test_help_shows_each_default(capsys, command):
    capsys.readouterr()
    assert run([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, (_, default, *_) in ndlite.cli.COMMANDS[command][2].items():
        name = key if key == "path" else "--" + key.replace("_", "-")
        assert name in text, key
        if default is ndlite.cli.REQUIRED:
            assert "(required)" in text
        elif default is not None:
            assert f"(default: {default})" in text, key


# -------------------------------------------------------------------- train

def test_train_repeats_distinct_checkpoints(work, tiny_data):
    out = work / "rep.ndwf"
    assert run(["train", "--data", tiny_data["train"],
                "--val-data", tiny_data["val"], "--out", out,
                "--repeats", 2, "--epochs", 1, "--batch-size", 50,
                "--channels", 4, "--residual-blocks", 1,
                "--dense-sizes", "8,8", "--seed", 0]) == 0
    p0, p1 = work / "rep.r0.ndwf", work / "rep.r1.ndwf"
    assert p0.exists() and p1.exists()
    assert sha256_file(p0) != sha256_file(p1)
    rep = read_report(f"{out}.report.json")
    assert len(rep["results"]["runs"]) == 2
    assert rep["results"]["runs"][1]["seed"] == 1
    assert 0.0 <= rep["results"]["mean_val_acc"] <= 1.0


def test_train_quant_stage_full(work, tiny_data):
    out = work / "full.ndwf"
    assert run(["train", "--data", tiny_data["train"],
                "--val-data", tiny_data["val"], "--out", out,
                "--quant-stage", "full", "--warmup-epochs", 1,
                "--weight-quant-epochs", 1, "--act-quant-epochs", 1,
                "--batch-size", 50, "--channels", 4,
                "--residual-blocks", 1, "--dense-sizes", "8,8",
                "--seed", 0]) == 0
    assert load_model(out).stage == "full"


def test_train_and_quantize_print_one_line_per_epoch(work, tiny_data,
                                                    fp_ckpt, capsys):
    capsys.readouterr()
    assert run(["train", "--data", tiny_data["train"],
                "--val-data", tiny_data["val"], "--out", work / "log.ndwf",
                "--quant-stage", "weights", "--warmup-epochs", 1,
                "--weight-quant-epochs", 2, "--batch-size", 50,
                "--channels", 4, "--dense-sizes", "8,8", "--seed", 0]) == 0
    assert run(["quantize", "--checkpoint", fp_ckpt, "--out",
                work / "log.q.ndwf", "--stage", "full",
                "--data", tiny_data["train"], "--val-data", tiny_data["val"],
                "--epochs", 1, "--batch-size", 50]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split(" loss=")[0] for ln in lines] == [
        "epoch 0: stage=fp", "epoch 1: stage=weights",
        "epoch 2: stage=weights", "epoch 0: stage=full"]
    pattern = (r"epoch \d: stage=\w+ loss=\d\.\d{4} train_acc=\d\.\d{4} "
               r"val_acc=\d\.\d{4} \d+\.\d\ds \d+ samples/s")
    assert all(re.fullmatch(pattern, ln) for ln in lines), lines


def test_quantize_stage_transition(work, fp_ckpt):
    out = work / "quantized.ndwf"
    assert run(["quantize", "--checkpoint", fp_ckpt, "--out", out,
                "--stage", "full"]) == 0
    assert load_model(out).stage == "full"
    rep = read_report(f"{out}.report.json")
    assert rep["inputs"][str(fp_ckpt)] == sha256_file(fp_ckpt)


def test_quantize_fine_tune_needs_val_data(work, tiny_data, fp_ckpt, capsys):
    out = work / "no-val.ndwf"
    capsys.readouterr()
    assert run(["quantize", "--checkpoint", fp_ckpt, "--out", out,
                "--data", tiny_data["train"], "--epochs", 1]) == 2
    err = capsys.readouterr().err
    assert "fine-tuning needs val_data alongside data" in err
    assert "Traceback" not in err and not out.exists()
    assert not Path(f"{out}.report.json").exists()


# ------------------------------------------------------- lower/verify/eval

@pytest.fixture(scope="module")
def quant_ckpt(work):
    model = randomized_quantized_model(1)
    path = work / "quant.ndwf"
    save_model(model, path)
    return path


@pytest.fixture(scope="module")
def lowered(work, quant_ckpt, tiny_data):
    out = work / "quant.bprog"
    code = run(["lower", "--checkpoint", quant_ckpt, "--out", out,
                "--trials", 500, "--width", 9, "--seed", 0])
    assert code == 0
    return out


def test_lower_prints_sparsity_and_verifies(work, quant_ckpt, capsys):
    out = work / "printed.bprog"
    assert run(["lower", "--checkpoint", quant_ckpt, "--out", out,
                "--trials", 200, "--seed", 1]) == 0
    text = capsys.readouterr().out
    assert "conv0:" in text and "live channels" in text
    assert "verified:" in text
    load_program(out)


def test_lower_of_an_unequal_program_exits_3(work, monkeypatch, capsys):
    """A lowered program that is not the model's (one conv0 channel's
    theta raised) is still written, and the proof alone, with no random
    trials, rejects it: exit 3, a counterexample on stderr and
    verify_passed false in the report."""
    ckpt, out = work / "unequal.ndwf", work / "unequal.bprog"
    save_model(_planted_conv0_model(), ckpt)

    def lower_then_raise_theta(model):
        prog = lower_model(model)
        _raise_theta(prog)
        return prog
    monkeypatch.setattr(ndlite.cli, "lower_model", lower_then_raise_theta)
    capsys.readouterr()
    assert run(["lower", "--checkpoint", ckpt, "--out", out,
                "--trials", 0]) == 3
    err = capsys.readouterr().err
    assert "verification FAILED" in err and "counterexample:" in err
    rep = read_report(f"{out}.report.json")
    res = rep["results"]
    assert res["verify_passed"] is False and res["trials_run"] == 0
    assert res["exhaustive_channels"] < res["total_channels"]
    assert rep["outputs"] == {str(out): sha256_file(out)}
    want = lower_model(load_model(ckpt))
    _raise_theta(want)
    assert load_program(out).layers == want.layers


def test_config_booleans(work, quant_ckpt, lowered, capsys):
    """A config-file boolean is true or false in any case; any other value
    exits 2 naming its key. lower takes no option that shapes the program:
    theta_mode as a config line and --fold-output as a flag exit 2."""
    cfg = work / "bool.cfg"
    rpt = work / "bool.count.json"
    for text, want in (("FALSE", False), ("True", True)):
        cfg.write_text(f"count_dead_indicators = {text}\n")
        assert run(["count", lowered, "--config", cfg, "--report", rpt]) == 0
        assert read_report(rpt)["resolved"]["count_dead_indicators"] is want
    cfg.write_text("count_dead_indicators = yes\n")
    capsys.readouterr()
    assert run(["count", lowered, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "count_dead_indicators = yes" in err and "Traceback" not in err
    out = work / "removed.bprog"
    lower = ["lower", "--checkpoint", quant_ckpt, "--out", out]
    cfg.write_text("theta_mode = zero\n")
    for argv, named in ((lower + ["--config", cfg],
                         "no command takes theta_mode"),
                        (lower + ["--fold-output"], "--fold-output")):
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err
    assert not out.exists() and not Path(f"{out}.report.json").exists()


def test_lower_rejects_fp_checkpoint(work, fp_ckpt):
    assert run(["lower", "--checkpoint", fp_ckpt,
                "--out", work / "nope.bprog"]) == 2


def test_eval_program_matches_checkpoint(work, quant_ckpt, lowered,
                                         tiny_data):
    reports = {}
    for name, path in (("model", quant_ckpt), ("program", lowered)):
        rpt = work / f"eval.{name}.json"
        assert run(["eval", path, "--data", tiny_data["val"],
                    "--report", rpt]) == 0
        reports[name] = read_report(rpt)["results"]
    assert reports["model"]["accuracy"] == reports["program"]["accuracy"]
    assert reports["model"]["confusion"] == reports["program"]["confusion"]


def test_eval_report_carries_seconds_and_peak_rss(work, quant_ckpt,
                                                  tiny_data):
    rpt = work / "eval.timed.json"
    assert run(["eval", quant_ckpt, "--data", tiny_data["val"],
                "--report", rpt]) == 0
    rep = read_report(rpt)
    for key in ("seconds", "peak_rss_mb"):
        assert isinstance(rep[key], float) and rep[key] > 0, key
    assert set(rep["results"]) == {"accuracy", "confusion", "samples"}


def test_eval_program_batches_odd_sized_set(work, quant_ckpt, lowered,
                                            tiny_data):
    ds = load_dataset(tiny_data["val"])
    odd = work / "odd.nds"
    save_dataset(dataclasses.replace(ds, bits=ds.bits[:101],
                                     labels=ds.labels[:101]), odd)
    confusions = {}
    for name, path in (("model", quant_ckpt), ("program", lowered)):
        rpt = work / f"eval.odd.{name}.json"
        assert run(["eval", path, "--data", odd, "--report", rpt]) == 0
        res = read_report(rpt)["results"]
        assert res["samples"] == 101
        confusions[name] = res["confusion"]
    assert confusions["model"] == confusions["program"]


def test_eval_rejects_empty_dataset(work, quant_ckpt, lowered, capsys):
    empty = work / "empty.nds"
    empty.write_bytes(dataset._HEADER.pack(dataset._MAGIC, dataset._VERSION,
                                           3, 1, 0, 0, 0x40, 0))
    for path, extra in ((quant_ckpt, []), (quant_ckpt, ["--threshold", 2]),
                        (lowered, [])):
        capsys.readouterr()
        assert run(["eval", path, "--data", empty] + extra) == 2
        assert "empty dataset" in capsys.readouterr().err


def test_eval_threshold_out_of_range(work, fp_ckpt, tiny_data):
    """A threshold outside (0, 1), an infinite one too, is the degenerate
    rule: above 1 every sample is "random", at 0 or below every one
    "real"; the set is balanced, so either gives accuracy 0.5."""
    for threshold, never in (("1.01", ("tp", "fp")), ("inf", ("tp", "fp")),
                             ("-0.5", ("tn", "fn")), ("-inf", ("tn", "fn"))):
        rpt = work / "eval.out_of_range.json"
        assert run(["eval", fp_ckpt, "--data", tiny_data["val"],
                    f"--threshold={threshold}", "--report", rpt]) == 0
        res = read_report(rpt)["results"]
        assert res["accuracy"] == 0.5, threshold
        assert res["confusion"][never[0]] == res["confusion"][never[1]] == 0


def test_eval_program_rejects_threshold_flag(lowered, tiny_data):
    assert run(["eval", lowered, "--data", tiny_data["val"],
                "--threshold", 0.6]) == 2


def test_eval_checkpoint_threshold_flag(work, fp_ckpt, quant_ckpt,
                                       tiny_data):
    """--threshold 0.6 evaluates a checkpoint under that decision rule, on
    the float route and on the exact route."""
    ds = load_dataset(tiny_data["val"])
    changed = []
    for path in (fp_ckpt, quant_ckpt):
        rpt = work / "eval.threshold.json"
        assert run(["eval", path, "--data", tiny_data["val"],
                    "--threshold", 0.6, "--report", rpt]) == 0
        rep = read_report(rpt)
        assert rep["resolved"]["threshold"] == 0.6
        model = load_model(path)
        default = evaluate(model, ds)
        model.cfg.decision_threshold = 0.6
        assert (rep["results"]["accuracy"], rep["results"]["confusion"]) \
            == evaluate(model, ds)
        changed.append(rep["results"]["confusion"] != default[1])
    assert any(changed)


def test_verify_roundtrip_ok(quant_ckpt, lowered):
    assert run(["verify", "--checkpoint", quant_ckpt, "--program", lowered,
                "--trials", 300, "--width", 9, "--seed", 2]) == 0


def test_verify_mutated_program_exits_3(work, capsys):
    model = _planted_conv0_model()
    ckpt = work / "planted.ndwf"
    save_model(model, ckpt)
    prog_path = work / "planted.bprog"
    assert run(["lower", "--checkpoint", ckpt, "--out", prog_path,
                "--trials", 100]) == 0
    prog = load_program(prog_path)
    conv0 = prog.layer("conv0")
    set_channel(conv0, 0, flip=not conv0.channels[0].flip)
    mutated = work / "mutated.bprog"
    save_program(prog, mutated)
    capsys.readouterr()
    assert run(["verify", "--checkpoint", ckpt, "--program", mutated,
                "--trials", 50, "--width", 9]) == 3
    assert "counterexample" in capsys.readouterr().err


@pytest.fixture(scope="module")
def proof_case(work):
    """(checkpoint, program) of a model with a folded output, a constant
    conv0 channel, a residual skip and dense1 channels of fan-in > 9."""
    model = randomized_quantized_model(2)
    antisymmetrize_output(model)
    model.norms["conv0"].gamma[1] = 0.0
    model.deltas["dense1"][()] = 0.05
    ckpt = work / "proof.ndwf"
    save_model(model, ckpt)
    prog = lower_model(model)
    path = work / "proof.bprog"
    save_program(prog, path)
    return ckpt, path


def _wide_dense1_channel(prog):
    """(dense1, c) of a dense1 channel c of fan-in > 9 whose theta lies in
    [-|N|, |P| - 1], so that theta - 1 and theta + 1 both change its
    function."""
    layer = prog.layer("dense1")
    return layer, next(c for c, cp in enumerate(layer.channels)
                       if cp.fan_in > 9 and -len(cp.n) <= cp.theta < len(cp.p))


def _theta_up(prog):
    layer, c = _wide_dense1_channel(prog)
    set_channel(layer, c, theta=layer.theta[c] + 1)


def _theta_down(prog):
    layer, c = _wide_dense1_channel(prog)
    set_channel(layer, c, theta=layer.theta[c] - 1)


def _flip_flip(prog):
    layer = prog.layer("res0.c1")
    set_channel(layer, 0, flip=not layer.channels[0].flip)


def _wrong_const(prog):
    layer = prog.layer("conv0")
    set_channel(layer, 1, const=1 - layer.channels[1].const)


def _move_p_to_n(prog):
    # a 3x3 tap off the centre column reads only padding at g=1
    layer = prog.layer("dense1")
    c, cp = next((c, cp) for c, cp in enumerate(layer.channels) if cp.p)
    set_channel(layer, c, p=cp.p[1:], n=cp.n + cp.p[:1])


def _drop_skip_from(prog):
    prog.layer("res0.c2").skip_from = None


@pytest.mark.parametrize("mutate", [_theta_up, _theta_down, _flip_flip,
                                    _wrong_const, _move_p_to_n,
                                    _drop_skip_from, None])
def test_verify_proof_catches_mutation_without_trials(work, proof_case,
                                                      capsys, mutate):
    """With no random trials and no enumeration, the per-channel proof
    alone rejects each mutation; None breaks the model's output pair's
    antisymmetry under the folded program instead."""
    ckpt, path = proof_case
    assert run(["verify", "--checkpoint", ckpt, "--program", path,
                "--trials", 0, "--width", 0]) == 0
    prog = load_program(path)
    if mutate is None:
        model = load_model(ckpt)
        model.weights["out"][:, 0] = model.weights["out"][:, 1]
        ckpt = work / "proof.asym.ndwf"
        save_model(model, ckpt)
    else:
        mutate(prog)
    mutated = work / "proof.mutated.bprog"
    save_program(prog, mutated)
    capsys.readouterr()
    rpt = work / "proof.verify.json"
    assert run(["verify", "--checkpoint", ckpt, "--program", mutated,
                "--trials", 0, "--width", 0, "--report", rpt]) == 3
    err = capsys.readouterr().err
    assert "counterexample" in err and "Traceback" not in err
    res = read_report(rpt)["results"]
    assert res["exhaustive_channels"] < res["total_channels"]


# -------------------------------------------------------------------- count

def test_count_checkpoint_dense_only(fp_ckpt, capsys):
    assert run(["count", fp_ckpt]) == 0
    text = capsys.readouterr().out
    assert "[dense]" in text and "[lightweight]" not in text


def test_count_program_with_ratio_and_csv(work, lowered, capsys):
    csv = work / "counts.csv"
    rpt = work / "count.json"
    assert run(["count", lowered, "--csv", csv, "--report", rpt]) == 0
    text = capsys.readouterr().out
    assert "[dense]" in text and "[lightweight]" in text
    assert "operation ratio" in text
    res = read_report(rpt)["results"]
    assert 0.0 < res["ratio"] < 1.0
    assert res["dense_total"]["mults"] > 0
    assert "component,mults,adds,bools,indicators" in csv.read_text()


def test_count_full_checkpoint_both_tables(quant_ckpt, capsys):
    assert run(["count", quant_ckpt]) == 0
    text = capsys.readouterr().out
    assert "[dense]" in text and "[lightweight]" in text


def test_main_reuses_its_parser_unchanged(quant_ckpt, capsys, monkeypatch):
    """main builds its parser once; a call that fails to parse leaves it
    as it was, so a failed call and then a valid count give the same exits
    and output as two fresh parsers do."""
    calls = [["count", "--no-such-flag", quant_ckpt], ["count", quant_ckpt]]

    def outcomes():
        got = []
        for argv in calls:
            code = run(argv)
            got.append((code, capsys.readouterr()))
        return got

    reused = outcomes()
    assert ndlite.cli._parser() is ndlite.cli._parser()
    monkeypatch.setattr(ndlite.cli, "_parser", ndlite.cli.build_parser)
    assert outcomes() == reused
    assert [code for code, _ in reused] == [2, 0]


# -------------------------------------------------------------- exit codes

def test_missing_input_exits_4(work, tiny_data):
    assert run(["eval", work / "ghost.ndwf",
                "--data", tiny_data["val"]]) == 4


def test_unwritable_output_exits_4():
    assert run(["gen-data", "--out", "/nonexistent/dir/x.nds",
                "--n-per-class", 10, "--rounds", 3]) == 4


def test_usage_errors_exit_2(work, tiny_data):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["gen-data", "--rounds", 3]) == 2       # missing out
    assert run(["train", "--data", tiny_data["train"],
                "--val-data", tiny_data["val"], "--out", work / "x.ndwf",
                "--quant-stage", "fp", "--repeats", 0]) == 2


def test_unknown_file_kind_exits_2(work, tiny_data):
    junk = work / "junk.bin"
    junk.write_bytes(b"hello world")
    assert run(["count", junk]) == 2
    assert run(["eval", junk, "--data", tiny_data["val"]]) == 2


def _broken_program(work, lowered, name, edit):
    """Copy of the lowered program with edit(lines) applied; returns the
    path and the 1-based number of the line edit returned."""
    lines = lowered.read_text(encoding="utf-8").splitlines()
    idx = edit(lines)
    path = work / name
    # surrogateescape writes a "\udcff" as the byte 0xff
    path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                    errors="surrogateescape")
    return path, idx + 1


def _drop_key(key, prefix):
    def edit(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[idx] = " ".join(p for p in lines[idx].split(" ")
                              if not p.startswith(f"{key}="))
        return idx
    return edit


def _truncate_channel_line(lines):
    idx = next(i for i, ln in enumerate(lines)
               if ln.startswith("IND ") and " P=[(" in ln)
    lines[idx] = lines[idx][:lines[idx].index(" P=[(") + 5]
    del lines[idx + 1:]
    return idx


def _claim_96_layers(lines):
    lines[0] = lines[0].replace(" layers=6", " layers=96")
    return 0


def _claim_extra_channel(lines):
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("LAYER "))
    n = int(lines[idx].split(" channels=")[1].split(" ")[0])
    lines[idx] = lines[idx].replace(f" channels={n}", f" channels={n + 1}")
    return idx


def _second_out_layer(lines):
    """Repeat the compare-decision out layer after itself."""
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("LAYER name=out"))
    end = lines.index("EXPR")
    lines[end:end] = lines[idx:end]
    lines[0] = lines[0].replace(" layers=6", " layers=7")
    return idx


def _set_value(key, value, prefix):
    """Edit: key=value on the first line starting with prefix."""
    def edit(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[idx] = " ".join(f"{key}={value}" if p.startswith(f"{key}=")
                              else p for p in lines[idx].split(" "))
        return idx
    return edit


def _const_7(lines):
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("IND "))
    lines[idx] = lines[idx].split(" theta=")[0] + " const=7"
    return idx


def _byte_ff(lines):
    """Edit: a byte 0xff, which is not UTF-8, in dense1's first channel."""
    idx = lines.index(next(ln for ln in lines
                           if ln.startswith("LAYER name=dense1 "))) + 1
    lines[idx] += " \udcff"
    return idx


def _overlap_then_malformed(lines):
    """Edit: a P/N overlap on dense2's first channel line and a malformed
    index list on the next; returns the overlap's line."""
    idx = lines.index(next(ln for ln in lines
                           if ln.startswith("LAYER name=dense2 "))) + 1
    p = lines[idx].split(" P=[")[1].split("]")[0]
    lines[idx] = re.sub(r" N=\S*", f" N=[{p}]", lines[idx])
    lines[idx + 1] = re.sub(r" P=\S*", " P=[1_0]", lines[idx + 1])
    return idx


def _set_p_list(layer_prefix, text):
    """Edit: P= of the first index channel line of the layer whose LAYER
    line starts with layer_prefix becomes text; returns that channel line."""
    def edit(lines):
        head = next(i for i, ln in enumerate(lines)
                    if ln.startswith(layer_prefix))
        idx = next(i for i in range(head + 1, len(lines))
                   if " P=[" in lines[i])
        lines[idx] = re.sub(r" P=\S*", lambda _: f" P={text}", lines[idx])
        return idx
    return edit


def _sub_in(prefix, pattern, repl):
    """Edit: the first match of pattern on the first line starting with
    prefix replaced by repl."""
    def edit(lines):
        idx = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[idx] = re.sub(pattern, repl, lines[idx], count=1)
        return idx
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("bad-kind", _set_value("kind", "foo", "LAYER "),
     "kind=foo is not conv or dense"),
    ("bad-const", _const_7, "const=7 is not 0 or 1"),
    ("bad-skip", _set_value("skip", "dense1", "LAYER name=res0.c2 "),
     "skip=dense1 names no earlier layer"),
    ("bad-decision", _set_value("decision", "foo", "LAYER name=out "),
     "decision=foo is not folded or compare"),
    ("no-kernel", _drop_key("kernel", "LAYER name=res0.c1 "),
     "missing kernel="),
    ("no-name", _drop_key("name", "LAYER "), "missing name="),
    ("no-kind", _drop_key("kind", "LAYER "), "missing kind="),
    ("no-in", _drop_key("in", "LAYER "), "missing in="),
    ("no-layout", _drop_key("layout", "BPROG "), "missing layout="),
    ("no-layers", _drop_key("layers", "BPROG "), "missing layers="),
    ("no-channels", _drop_key("channels", "LAYER "), "missing channels="),
    ("truncated", _truncate_channel_line, "malformed index list"),
    ("layers-96", _claim_96_layers,
     "header has layers=96 but the body has 6 LAYER lines"),
    ("extra-channel", _claim_extra_channel, "conv0 has channels=4 but 3"),
    ("second-out", _second_out_layer,
     "out: the last layer, and only it, takes a decision="),
    ("theta-1_0", _set_value("theta", "1_0", "IND ch=0 theta="),
     "theta=1_0 is not an integer in ASCII digits"),
    ("theta-plus", _set_value("theta", "+1", "IND ch=0 theta="),
     "theta=+1 is not an integer in ASCII digits"),
    ("in-plus", _set_value("in", "+6", "LAYER name=dense2 "),
     "in=+6 is not a count in ASCII digits"),
    ("compare-theta-1_0",
     _set_value("compare_theta", "1_0", "LAYER name=out "),
     "compare_theta=1_0 is not an integer in ASCII digits"),
    ("layers-1_0", _set_value("layers", "1_0", "BPROG "),
     "layers=1_0 is not a count in ASCII digits"),
    ("layers-plus", _set_value("layers", "+6", "BPROG "),
     "layers=+6 is not a count in ASCII digits"),
    ("byte-ff", _byte_ff, "'utf-8' codec can't decode byte 0xff"),
    ("overlap-then-malformed", _overlap_then_malformed,
     "P and N must be disjoint"),
    ("dense-index-twice", _set_p_list("LAYER name=dense1 ", "[99999,99999]"),
     "index 99999 listed twice"),
    ("conv-index-twice", _set_p_list("LAYER name=conv0 ",
                                     "[(99,0,0),(99,0,0)]"),
     "index (99,0,0) listed twice"),
    ("key-typo", _sub_in("IND ch=0 theta=", r" theta=\S+", " thetaa=720"),
     "an IND line takes no thetaa="),
    ("unknown-key", _sub_in("LAYER name=conv0 ", "$", " colour=red"),
     "a LAYER line takes no colour="),
    ("skip-typo", _sub_in("LAYER name=res0.c2 ", " skip=", " skp="),
     "a LAYER line takes no skp="),
    ("header-key", _sub_in("BPROG ", "$", " colour=red"),
     "the BPROG line takes no colour="),
    ("theta-twice", _sub_in("IND ch=0 theta=", r" theta=\S+",
                            " theta=5 theta=720"), "theta= appears twice"),
    ("const-beside-lists", _sub_in("IND ch=0 const=", "$", " P=[] N=[]"),
     "an IND line with const= takes no P="),
    ("const-on-acc", _sub_in("ACC ch=0 ", r" P=.*", " const=1"),
     "an ACC line takes no const="),
    ("compare-theta-unused", _sub_in("LAYER name=dense1 ", "$",
                                     " compare_theta=0"),
     "compare_theta= needs decision=compare"),
    ("ch-7", _set_value("ch", "7", "IND ch=0 "),
     "ch=7 but the line is channel 0 of its layer"),
    ("no-ch", _drop_key("ch", "IND ch=0 "), "missing ch="),
    ("no-theta", _drop_key("theta", "IND ch=0 theta="), "missing theta="),
    ("no-flip", _drop_key("flip", "IND ch=0 theta="), "missing flip="),
    ("dense-kernel", _sub_in("LAYER name=dense1 ", "$", " kernel=1x1"),
     "a dense layer takes no kernel="),
    ("conv-in-9", _set_value("in", "9", "LAYER name=res0.c1 "),
     "res0.c1: expected 9 input channels"),
])
def test_malformed_program_exits_2(work, quant_ckpt, lowered, tiny_data,
                                   capsys, name, edit, message):
    path, lineno = _broken_program(work, lowered, f"{name}.bprog", edit)
    for argv in (["eval", path, "--data", tiny_data["val"]],
                 ["verify", "--checkpoint", quant_ckpt, "--program", path,
                  "--trials", 10]):
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: {message}" in err
        assert "Traceback" not in err


_MALFORMED_LISTS = ["[1,,2]", "[1,2,]", "[,1]", "[1_0]", "[+1]", "[１]",
                    "[1.5]", "[0x1]", "[(1,2),(3,4,5)]", "[(1,2,3,4),(5,6)]",
                    "[(1,2,3)(4,5,6)]", "[(1,2,3),]", "[4,(1,2,3)]", "[-1]",
                    "[\t1]", "[(0,0,0);(1,0,0)]", "[(٠,0,0)]", "1", "[1"]


@pytest.mark.parametrize("layer", ["conv0", "dense1"])
@pytest.mark.parametrize("text", _MALFORMED_LISTS)
def test_malformed_index_list_exits_2(work, lowered, tiny_data, capsys,
                                      layer, text):
    path, lineno = _broken_program(
        work, lowered, f"list-{layer}-{_MALFORMED_LISTS.index(text)}.bprog",
        _set_p_list(f"LAYER name={layer} ", text))
    capsys.readouterr()
    assert run(["eval", path, "--data", tiny_data["val"]]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{lineno}: malformed index list" in err
    assert "Traceback" not in err


def test_program_eval_compiles_once(work, lowered, tiny_data, monkeypatch):
    """eval of a .bprog reuses the compile of the load."""
    calls = []
    compile_ = lowering._compile

    def counted(*args, **kwargs):
        calls.append(args)
        return compile_(*args, **kwargs)

    monkeypatch.setattr(lowering, "_compile", counted)
    assert run(["eval", lowered, "--data", tiny_data["val"]]) == 0
    assert len(calls) == 1


def _exits_0_2_or_4(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) in (0, 2, 4), argv
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def saved_programs(work):
    return saved_programs_in(work)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_damaged_program_exits_0_2_or_4(work, tiny_data, saved_programs, data):
    path = work / "damaged.bprog"
    path.write_bytes(data.draw(damaged(data.draw(st.sampled_from(
        saved_programs)))))
    for argv in (["eval", path, "--data", tiny_data["val"]], ["count", path]):
        _exits_0_2_or_4(argv)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


@st.composite
def header_value_replaced(draw, raw):
    """Checkpoint bytes raw with one value of its JSON header, at any depth
    (a meta value, a delta, a tensor shape's dimension, ...), replaced by
    random JSON."""
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8:8 + hlen])
    places = []  # (container, key) of every value in the header

    def walk(node):
        for key in (range(len(node)) if isinstance(node, list) else node):
            places.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])
    walk(header)
    node, key = draw(st.sampled_from(places))
    node[key] = draw(_JSON)
    blob = json.dumps(header).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen:]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_exits_0_2_or_4(work, quant_ckpt,
                                                    tiny_data, data):
    raw = quant_ckpt.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 4)
    path = work / "damaged.ndwf"
    # parts: magic, header length, JSON header, payload
    path.write_bytes(data.draw(damaged(raw, [0, 4, 8, 8 + hlen])
                               | header_value_replaced(raw)))
    try:
        load_model(path)
    except ValueError:
        pass
    _exits_0_2_or_4(["eval", path, "--data", tiny_data["val"]])
    _exits_0_2_or_4(["count", path])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_dataset_loads_or_exits_0_2_or_4(work, quant_ckpt, lowered,
                                                 tiny_data, data):
    raw = tiny_data["val"].read_bytes()
    path = work / "damaged.nds"
    path.write_bytes(data.draw(damaged(raw, [0, dataset._HEADER.size])))
    try:
        load_dataset(path)
    except ValueError:
        pass
    for model in (quant_ckpt, lowered):
        _exits_0_2_or_4(["eval", model, "--data", path])


def _first_p_entry(layer_prefix, entry):
    """Edit: entry joins the P set of the first channel with a non-empty P
    in the layer whose LAYER line starts with layer_prefix; returns that
    LAYER line."""
    def edit(lines):
        head = next(i for i, ln in enumerate(lines)
                    if ln.startswith(layer_prefix))
        idx = next(i for i in range(head + 1, len(lines))
                   if " P=[" in lines[i] and " P=[]" not in lines[i])
        lines[idx] = lines[idx].replace(" P=[", f" P=[{entry},")
        return head
    return edit


def _skip_into_dense1(lines):
    idx = next(i for i, ln in enumerate(lines)
               if ln.startswith("LAYER name=dense1 "))
    lines[idx] += " skip=res0.c2"
    return idx


def _one_channel_compare(lines):
    idx = next(i for i, ln in enumerate(lines)
               if ln.startswith("LAYER name=out "))
    assert " decision=compare " in lines[idx]
    lines[idx] = lines[idx].replace(" channels=2", " channels=1")
    del lines[idx + 2]
    return idx


@pytest.mark.parametrize("name, edit, message", [
    ("conv-index-99", _first_p_entry("LAYER name=conv0 ", "(99,0,0)"),
     "conv0: index outside the layer input"),
    ("dense-index-99999", _first_p_entry("LAYER name=dense1 ", "99999"),
     "dense1: index outside the layer input"),
    ("dense-index-30-digits", _first_p_entry("LAYER name=dense1 ", "9" * 30),
     "dense1: index outside the layer input"),
    ("skip-shape", _skip_into_dense1,
     "dense1: skip source 'res0.c2' has no output of shape (6,)"),
    ("dense-in-11-digits",
     _set_value("in", "99999999999", "LAYER name=dense1 "),
     "dense1: expected input width 99999999999, got 48"),
    ("compare-1-channel", _one_channel_compare,
     "out: a compare decision takes 2 channels, got 1"),
])
def test_miswired_program_exits_2(work, quant_ckpt, lowered, tiny_data,
                                  capsys, name, edit, message):
    path, lineno = _broken_program(work, lowered, f"{name}.bprog", edit)
    for argv in (["count", path],
                 ["eval", path, "--data", tiny_data["val"]],
                 ["verify", "--checkpoint", quant_ckpt, "--program", path,
                  "--trials", 10]):
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: {message}" in err
        assert "Traceback" not in err


def test_declared_kernel_allocates_live_taps_only(work, quant_ckpt, lowered,
                                                  tiny_data, capsys):
    """A conv layer's codes cover only the taps that can read its input: on
    the 16 x 1 map, 31 x 1 of a declared 99999x99999 kernel. Every index of
    the edited layer then reads padding only, so the program loads and
    runs, and verify finds the kernel is not the model's."""
    path, _ = _broken_program(
        work, lowered, "kernel-99999.bprog",
        _set_value("kernel", "99999x99999", "LAYER name=res0.c1 "))
    kmat = lowering._compiled_layers(load_program(path))[1].kmat
    assert kmat.shape == (31 * 3, 3) and not kmat.any()
    for argv, code in ((["count", path], 0),
                       (["eval", path, "--data", tiny_data["val"]], 0),
                       (["verify", "--checkpoint", quant_ckpt, "--program",
                         path, "--trials", 10], 3)):
        capsys.readouterr()
        assert run(argv) == code, argv
        assert "Traceback" not in capsys.readouterr().err


def test_group_size_mismatch_exits_2(work, quant_ckpt):
    out = work / "g8.nds"
    assert run(["gen-data", "--out", out, "--n-per-class", 16,
                "--rounds", 3, "--group-size", 8]) == 0
    assert run(["eval", quant_ckpt, "--data", out]) == 2


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _rewrite_header(src, dst, edit):
    """Copy of checkpoint src with edit(header dict) applied."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = edit(json.loads(raw[8:8 + hlen]))
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob
                    + raw[8 + hlen:])


# (name, part edited, edit, message); "body" edits get and return
# (tensors, meta), "header" edits the checkpoint's JSON header.
_BAD_CHECKPOINTS = [
    ("no-tensor", "body", lambda t, m: (_without(t, "res0.c1.w"), m),
     "checkpoint has no tensor 'res0.c1.w'"),
    ("no-norm", "body", lambda t, m: (_without(t, "res0.bn2.var"), m),
     "checkpoint has no tensor 'res0.bn2.var'"),
    ("dense1-3x8", "body",
     lambda t, m: ({**t, "dense1.w": np.zeros((3, 8), np.float32)}, m),
     "tensor 'dense1.w' has shape [3, 8], expected [48, 6]"),
    ("no-delta", "body",
     lambda t, m: (t, {**m, "deltas": _without(m["deltas"], "out")}),
     "checkpoint meta has no 'deltas.out'"),
] + [
    (f"no-meta-{key}", "body", lambda t, m, key=key: (t, _without(m, key)),
     f"checkpoint meta has no {key!r}")
    for key in ("kind", "stage", "deltas", "config")
] + [
    (f"no-header-{key}", "header", lambda h, key=key: _without(h, key),
     f"header has no {key!r}")
    for key in ("version", "tensors", "payload_sha256", "meta")
] + [
    ("tensors-5", "header", lambda h: {**h, "tensors": 5},
     "header 'tensors' is not a list"),
] + [
    (f"entry-{name}", "header",
     lambda h, key=key, value=value: {**h, "tensors": [
         {**h["tensors"][0], key: value}] + h["tensors"][1:]},
     "tensor entry 0 needs a str 'name' and a 'shape' list of "
     "non-negative ints")
    for name, key, value in (("shape-ab", "shape", "ab"),
                             ("shape-float", "shape", [32.5, 4, 1, 1]),
                             ("shape-negative", "shape", [-3, -4, 1, 1]),
                             ("shape-bool", "shape", [True, 4, 1, 1]),
                             ("name-int", "name", 5))
] + [
    ("entry-shape-0x1e30", "header", lambda h: {**h, "tensors": [
        {**h["tensors"][0], "shape": [0, 10**30]}] + h["tensors"][1:]},
     f"tensor entry 0 has shape [0, {10**30}], more than the payload holds"),
] + [
    (f"delta-{name}", "body", lambda t, m, value=value: (t, {
        **m, "deltas": {**m["deltas"], "conv0": value}}),
     "checkpoint meta 'deltas.conv0' is not a finite number")
    for name, value in (("list", []), ("bool", True), ("str", "0.5"),
                        ("nan", float("nan")), ("10e400", 10**400))
] + [
    (f"config-{name}", "body", lambda t, m, key=key, value=value: (t, {
        **m, "config": {**m["config"], key: value}}),
     "bad 'config': group_size, channels, residual_blocks and dense_sizes "
     "must be integers >= 1")
    for name, key, value in (("blocks-1.5", "residual_blocks", 1.5),
                             ("channels-bool", "channels", True),
                             ("dense-sizes-float", "dense_sizes", [6.5, 5]))
]


@pytest.mark.parametrize("name, part, edit, message", _BAD_CHECKPOINTS,
                         ids=[c[0] for c in _BAD_CHECKPOINTS])
def test_malformed_checkpoint_exits_2(work, quant_ckpt, tiny_data, capsys,
                                      name, part, edit, message):
    path = work / f"{name}.ndwf"
    if part == "header":
        _rewrite_header(quant_ckpt, path, edit)
    else:
        save_weights(path, *edit(*load_weights(quant_ckpt)))
    for argv in (["eval", path, "--data", tiny_data["val"]],
                 ["count", path],
                 ["verify", "--checkpoint", path, "--program", path]):
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "Traceback" not in err


def test_verify_renamed_layer_exits_3(work, quant_ckpt, lowered, capsys):
    text = lowered.read_text(encoding="utf-8")
    renamed = work / "dense9.bprog"
    renamed.write_text(text.replace("LAYER name=dense2 ", "LAYER name=dense9 "),
                       encoding="utf-8")
    capsys.readouterr()
    assert run(["verify", "--checkpoint", quant_ckpt, "--program", renamed,
                "--trials", 10]) == 3
    err = capsys.readouterr().err
    assert "layer=dense9" in err and "Traceback" not in err


def test_verify_two_block_program_on_one_block_model_exits_3(
        work, quant_ckpt, capsys):
    two = randomized_quantized_model(1, cfg=small_cfg(residual_blocks=2))
    path = work / "two_blocks.bprog"
    save_program(lower_model(two), path)
    capsys.readouterr()
    assert run(["verify", "--checkpoint", quant_ckpt, "--program", path,
                "--trials", 0]) == 3
    err = capsys.readouterr().err
    assert "layer=res1.c1" in err and "Traceback" not in err


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("group_size", [1, 2])
def test_layer_table_is_the_only_wiring(tmp_path, blocks, group_size):
    m = randomized_quantized_model(
        4, cfg=small_cfg(residual_blocks=blocks, group_size=group_size))
    antisymmetrize_output(m)
    names = [s.name for s in layer_specs(m.cfg)]
    prog = lower_model(m)
    assert [lp.name for lp in prog.layers] == names
    assert structure_mismatch(prog, layer_specs(m.cfg)) is None
    bits = np.zeros((2, 4, 16, group_size), dtype=np.uint8)
    _, _, planes = exact_bit_forward(m, bits, return_planes=True)
    assert [n for n, _ in planes if n != "out.sum_diff"] == names
    path = tmp_path / "m.ndwf"
    save_model(m, path)
    tensors, _ = load_weights(path)
    assert [k[:-len(".w")] for k in tensors if k.endswith(".w")] == names
    assert [s.name for s in layer_specs(_implied_config(prog))] == names


def test_runtime_imports_numpy_only(quant_ckpt):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, ndlite, ndlite.cli\n"
            "rc = ndlite.cli.main(['count', sys.argv[1]])\n"
            "print(rc, sorted(m for m in ('scipy', 'hypothesis', 'pytest')\n"
            "                 if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code, str(quant_ckpt)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
