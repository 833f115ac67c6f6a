"""Scalar references used only as test oracles.

The cipher is written directly from the public SPECK32/64 definition,
deliberately in a different style from the library (explicit l-word state,
per-round inverse), so the two implementations do not share structure.
The pair generator builds one sample at a time from a sequential view of
the counter stream, the path that gen_dataset vectorizes.
"""

from dataclasses import dataclass

import numpy as np

from ndlite import rng, speck
from ndlite.dataset import DEFAULT_DELTA, REAL

M = 0xFFFF


def _rotl(v, r):
    return ((v << r) & M) | (v >> (16 - r))


def _rotr(v, r):
    return (v >> r) | ((v << (16 - r)) & M)


def ref_expand_key(k3, k2, k1, k0, t):
    # k0 is the low word; l-words are consumed round-robin.
    l = [k1, k2, k3]
    keys = [k0]
    for i in range(t - 1):
        new_l = (keys[i] + _rotr(l[i % 3], 7)) & M
        new_l ^= i
        new_k = _rotl(keys[i], 2) ^ new_l
        l[i % 3] = new_l
        keys.append(new_k)
    return keys[:t]


def ref_encrypt(x, y, keys):
    for k in keys:
        x = (_rotr(x, 7) + y) & M
        x ^= k
        y = _rotl(y, 2)
        y ^= x
    return x, y


def ref_decrypt(x, y, keys):
    for k in reversed(keys):
        y ^= x
        y = _rotr(y, 2)
        x ^= k
        x = (x - y) & M
        x = _rotl(x, 7)
    return x, y


# ----------------------------------------------------- pair generation

class CounterRng:
    """Sequential view of the counter stream starting at `counter`."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed
        self.counter = counter

    def next_u64(self) -> int:
        v = rng.draw(self.seed, self.counter)
        self.counter += 1
        return v


def _split_u64(v):
    return (v >> 16) & M, v & M


def make_pair(label, key, r: CounterRng, rounds, delta=DEFAULT_DELTA):
    """One labeled ciphertext pair under `key`; plaintexts come from `r`."""
    ks = speck.key_schedule(key, rounds)
    p0 = _split_u64(r.next_u64())
    if label == REAL:
        p1 = (p0[0] ^ delta[0], p0[1] ^ delta[1])
    else:
        p1 = _split_u64(r.next_u64())
    return speck.encrypt(p0, ks), speck.encrypt(p1, ks)


def encode_input(pairs):
    """Stack ciphertext pairs into a [4, 16, g] bit tensor, MSB-first."""
    g = len(pairs)
    if g < 1:
        raise ValueError("need at least one pair")
    words = np.zeros((4, g), dtype=np.uint32)
    for d, (c0, c1) in enumerate(pairs):
        words[:, d] = (c0[0], c0[1], c1[0], c1[1])
    shifts = np.arange(15, -1, -1, dtype=np.uint32)
    # [4, g] words -> [4, 16, g] bits
    return ((words[:, None, :] >> shifts[None, :, None]) & 1).astype(np.uint8)


@dataclass
class Sample:
    bits: np.ndarray  # uint8 [4, 16, g], values in {0, 1}
    label: int  # REAL or RANDOM


def samples(ds):
    """The dataset's samples in storage order."""
    for i in range(len(ds)):
        yield Sample(bits=ds.bits[i], label=int(ds.labels[i]))
