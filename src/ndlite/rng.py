"""Counter-based splittable random generator.

Every draw is a pure function of (seed, counter) through a SplitMix-style
64-bit finalizer, so generation parallelizes deterministically: workers can
consume disjoint counter ranges in any order and produce identical output.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def draw(seed: int, counter: int) -> int:
    """The stream's `counter`-th 64-bit value."""
    return mix64((seed + (counter + 1) * GOLDEN) & MASK64)


def draw_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized `draw` over an array of counters. Returns uint64."""
    z = (np.uint64(seed & MASK64)
         + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))

