"""Train and write the two fixed checkpoints the benchmark reads.

    python3 bench/make_checkpoints.py [name ...]

Each checkpoint is trained with the pipeline's own `train` on the staged
fp -> weights -> full schedule, from the seeds and sizes in SPECS below,
and written to bench/checkpoints/<name>.ndwf. bench/checkpoints/manifest.json
records, per checkpoint, the sha256 of the file, the seeds, the schedule,
the data sizes, the validation accuracy and the versions it was made with.
The benchmark refuses a checkpoint whose sha256 differs from the manifest,
so the inference workloads measure the same program on every commit.
Float training is not bit-reproducible across BLAS builds, so re-running
this script may write different bytes; commit the new manifest with them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from ndlite import dataset, model  # noqa: E402
from ndlite.quant import QuantSchedule  # noqa: E402

CKPT_DIR = HERE / "checkpoints"
MANIFEST = CKPT_DIR / "manifest.json"

# n_*_per_class count cipher pairs per class; a sample holds group_size pairs.
SPECS = {
    "infer_g1": {
        "config": {"group_size": 1, "channels": 32, "residual_blocks": 1,
                   "dense_sizes": [64, 64]},
        "rounds": 3,
        "n_train_per_class": 20_000, "train_seed": 9101,
        "n_val_per_class": 2_000, "val_seed": 9102,
        "schedule": [2, 2, 4],
        "batch_size": 512, "lr": 1e-3, "init_seed": 0, "shuffle_seed": 0,
    },
    "compile_g8": {
        "config": {"group_size": 8, "channels": 32, "residual_blocks": 1,
                   "dense_sizes": [64, 64]},
        "rounds": 3,
        "n_train_per_class": 16_384, "train_seed": 9801,
        "n_val_per_class": 4_096, "val_seed": 9802,
        # At lr 1e-3 the g=8 model collapses to chance in the full stage.
        "schedule": [2, 2, 6],
        "batch_size": 512, "lr": 3e-4, "init_seed": 0, "shuffle_seed": 0,
    },
}


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make(name, spec):
    cfg = spec["config"]
    g = cfg["group_size"]
    train_set = dataset.gen_dataset(spec["n_train_per_class"], spec["rounds"],
                                    group_size=g, seed=spec["train_seed"])
    val_set = dataset.gen_dataset(spec["n_val_per_class"], spec["rounds"],
                                  group_size=g, seed=spec["val_seed"])
    m = model.build_model(model.ModelConfig(
        group_size=g, channels=cfg["channels"],
        residual_blocks=cfg["residual_blocks"],
        dense_sizes=tuple(cfg["dense_sizes"])), seed=spec["init_seed"])
    hyper = model.TrainHyper(batch_size=spec["batch_size"], lr=spec["lr"],
                             seed=spec["shuffle_seed"])
    t0 = time.perf_counter()
    m, report = model.train(m, train_set, val_set, hyper=hyper,
                            quant=QuantSchedule(*spec["schedule"]))
    seconds = time.perf_counter() - t0
    if m.stage != "full":
        raise RuntimeError(f"{name}: training ended in stage {m.stage!r}")
    path = CKPT_DIR / f"{name}.ndwf"
    model.save_model(m, path)
    val_acc, _ = model.evaluate(m, val_set)
    print(f"{name}: val_acc={val_acc:.4f} train_s={seconds:.1f} -> {path}")
    return {**spec, "file": path.name, "sha256": sha256_file(path),
            "val_acc": val_acc, "best_epoch": report.best_epoch,
            "train_samples": len(train_set), "val_samples": len(val_set),
            "train_seconds": round(seconds, 1),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv):
    names = argv or list(SPECS)
    unknown = [n for n in names if n not in SPECS]
    if unknown:
        print(f"unknown checkpoint(s): {unknown}; choose from {list(SPECS)}",
              file=sys.stderr)
        return 2
    CKPT_DIR.mkdir(exist_ok=True)
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for name in names:
        manifest[name] = make(name, SPECS[name])
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
