"""Per-integer lookup-table oracle for the exact model's indicators, used
only in tests.

The library decides each channel's rational predicate from one integer
switch point over the channel's reachable sum range; this oracle evaluates
the predicate at every integer of a range instead, which needs no
assumption about its shape.
"""

import numpy as np


def channel_lut_bits(s_int, predicate):
    """Apply an integer predicate per channel via a range lookup table.

    s_int: integer sums [N, C, ...]; predicate(c, s) -> bool, evaluated once
    per integer in each channel's observed range.
    """
    s_int = np.asarray(s_int).astype(np.int64)
    out = np.zeros(s_int.shape, dtype=np.uint8)
    for c in range(s_int.shape[1]):
        plane = s_int[:, c]
        lo, hi = int(plane.min()), int(plane.max())
        lut = np.array([predicate(c, s) for s in range(lo, hi + 1)],
                       dtype=np.uint8)
        out[:, c] = lut[plane - lo]
    return out
