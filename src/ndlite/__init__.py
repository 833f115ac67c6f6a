"""Lightweight neural distinguishers for SPECK32/64.

Pipeline: generate labeled ciphertext-pair data, train a small residual
network, quantize its weights to ternary codes with a learned step size,
lower the quantized network to an exact program of Boolean gathers, integer
additions and indicator comparisons, and account for the operation counts
of both forms.
"""

from .speck import encrypt, key_schedule
from .dataset import Dataset, gen_dataset, load_dataset, save_dataset
from .model import Model, ModelConfig, TrainHyper, build_model, classify, evaluate, train
from .quant import QuantSchedule, extract_ternary, quantize_weights
from .lowering import (BooleanProgram, load_program, lower_model, run_program,
                       save_program, verify_equivalence)
from .opcount import OpCounts, count_model

__version__ = "0.1.0"

__all__ = [
    "encrypt",
    "key_schedule",
    "Dataset",
    "gen_dataset",
    "load_dataset",
    "save_dataset",
    "Model",
    "ModelConfig",
    "TrainHyper",
    "build_model",
    "classify",
    "evaluate",
    "train",
    "QuantSchedule",
    "extract_ternary",
    "quantize_weights",
    "BooleanProgram",
    "lower_model",
    "load_program",
    "run_program",
    "save_program",
    "verify_equivalence",
    "OpCounts",
    "count_model",
]
