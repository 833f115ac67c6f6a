"""Labeled real/random ciphertext-pair datasets.

A sample stacks `group_size` same-label pairs into a [4, 16, g] bit tensor:
channels are (C_l, C_r, C_l', C_r'), width runs over the 16 bit positions
MSB-first, depth over the grouped pairs. Real pairs encrypt (P, P ^ delta),
random pairs encrypt (P, Q) with Q fresh-uniform; every pair draws its own
key. All randomness is counter-based (see rng), so generation is
reproducible and embarrassingly parallel over pair indices: pair p consumes
counters 4p (key), 4p+1 (plaintext), 4p+2 (random partner).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import rng as ndrng
from . import speck

REAL = 1
RANDOM = 0
DEFAULT_DELTA = (0x0040, 0x0000)

_MAGIC = b"NDS1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIQHH")


@dataclass
class Dataset:
    bits: np.ndarray  # uint8 [n_samples, 4, 16, g]
    labels: np.ndarray  # uint8 [n_samples]
    rounds: int
    group_size: int
    seed: int
    delta: tuple = DEFAULT_DELTA

    def __len__(self):
        return len(self.labels)

    def float_inputs(self):
        """(X float32 [n,4,16,g], y uint8 [n]) view for training."""
        return self.bits.astype(np.float32), self.labels


def _pair_words_to_bits(c0l, c0r, c1l, c1r):
    """[n, 4, 16] uint8 bits of four 16-bit word arrays, MSB first: each
    word is stored big-endian, so unpacking its two bytes gives its bits in
    order."""
    words = np.stack([c0l, c0r, c1l, c1r], axis=1).astype(">u2")  # [n, 4]
    return np.unpackbits(words.view(np.uint8), axis=1).reshape(-1, 4, 16)


def gen_dataset(n_per_class, rounds, delta=DEFAULT_DELTA, group_size=8, seed=0):
    """Generate a balanced dataset of n_per_class pairs per class.

    Samples alternate real/random in storage order. Deterministic in
    (seed, parameters) regardless of how generation is scheduled.
    """
    if n_per_class < 1 or group_size < 1:
        raise ValueError("n_per_class and group_size must be >= 1")
    if n_per_class % group_size != 0:
        raise ValueError(
            f"n_per_class={n_per_class} not divisible by group_size={group_size}")
    if not (0 <= delta[0] <= 0xFFFF and 0 <= delta[1] <= 0xFFFF):
        raise ValueError("delta words must fit in 16 bits")

    per_class = n_per_class // group_size
    n_samples = 2 * per_class
    n_pairs = n_samples * group_size
    labels = (np.arange(n_samples, dtype=np.uint64) % 2 == 0).astype(np.uint8)
    pair_real = np.repeat(labels, group_size).astype(bool)

    base = np.arange(n_pairs, dtype=np.uint64) * np.uint64(4)
    key_u64 = ndrng.draw_array(seed, base)
    p_u64 = ndrng.draw_array(seed, base + np.uint64(1))
    q_u64 = ndrng.draw_array(seed, base + np.uint64(2))

    kw = tuple(((key_u64 >> np.uint64(sh)) & np.uint64(0xFFFF)).astype(np.uint32)
               for sh in (48, 32, 16, 0))
    p0l = ((p_u64 >> np.uint64(16)) & np.uint64(0xFFFF)).astype(np.uint32)
    p0r = (p_u64 & np.uint64(0xFFFF)).astype(np.uint32)
    ql = ((q_u64 >> np.uint64(16)) & np.uint64(0xFFFF)).astype(np.uint32)
    qr = (q_u64 & np.uint64(0xFFFF)).astype(np.uint32)
    p1l = np.where(pair_real, p0l ^ delta[0], ql)
    p1r = np.where(pair_real, p0r ^ delta[1], qr)

    ks = speck.key_schedule(kw, rounds)
    c0l, c0r = speck.encrypt((p0l, p0r), ks)
    c1l, c1r = speck.encrypt((p1l, p1r), ks)

    bits = _pair_words_to_bits(c0l, c0r, c1l, c1r)  # [n_pairs, 4, 16]
    bits = bits.reshape(n_samples, group_size, 4, 16).transpose(0, 2, 3, 1)

    return Dataset(bits=np.ascontiguousarray(bits), labels=labels,
                   rounds=rounds, group_size=group_size, seed=seed,
                   delta=tuple(delta))


def save_dataset(ds: Dataset, path):
    """Write the packed binary dataset format (magic NDS1)."""
    n = len(ds)
    header = _HEADER.pack(_MAGIC, _VERSION, ds.rounds, ds.group_size, n,
                          ds.seed & ndrng.MASK64, ds.delta[0], ds.delta[1])
    # Pack channel-major, then pair depth, width fastest, MSB-first per byte.
    packed = np.packbits(ds.bits.transpose(0, 1, 3, 2).reshape(n, -1), axis=1)
    out = np.empty((n, 1 + packed.shape[1]), dtype=np.uint8)
    out[:, 0] = ds.labels
    out[:, 1:] = packed
    with open(path, "wb") as f:
        f.write(header)
        f.write(out.tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated dataset file")
    magic, version, rounds, group_size, n, seed, dl, dr = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    g = group_size
    rec = 1 + (4 * 16 * g + 7) // 8
    body = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    if body.size != n * rec:
        raise ValueError(f"{path}: expected {n * rec} payload bytes, got {body.size}")
    body = body.reshape(n, rec)
    labels = body[:, 0].copy()
    bits = np.unpackbits(body[:, 1:], axis=1, count=4 * 16 * g)
    bits = bits.reshape(n, 4, g, 16).transpose(0, 1, 3, 2)
    return Dataset(bits=np.ascontiguousarray(bits), labels=labels, rounds=rounds,
                   group_size=group_size, seed=seed, delta=(dl, dr))
