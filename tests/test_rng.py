"""Counter-based RNG tests against the published SplitMix64 sequence."""

import numpy as np

from ndlite import rng

from speck_reference import CounterRng


def test_splitmix64_known_sequence():
    # First outputs of SplitMix64 seeded with 0 (reference implementation).
    assert rng.draw(0, 0) == 0xE220A8397B1DCDAF
    assert rng.draw(0, 1) == 0x6E789E6AA1B965F4
    assert rng.draw(0, 2) == 0x06C45D188009454F
    assert rng.draw(0, 3) == 0xF88BB8A8724C81EC


def test_splitmix64_nonzero_seed():
    assert rng.draw(0x123456789ABCDEF, 0) == 0x157A3807A48FAA9D
    assert rng.draw(0x123456789ABCDEF, 1) == 0xD573529B34A1D093


def test_draw_array_matches_scalar():
    counters = np.arange(257, dtype=np.uint64)
    arr = rng.draw_array(42, counters)
    assert arr.dtype == np.uint64
    for i in (0, 1, 100, 256):
        assert int(arr[i]) == rng.draw(42, i)


def test_draw_is_stateless():
    a = rng.draw(7, 1000)
    b = rng.draw(7, 0)
    assert rng.draw(7, 1000) == a
    assert rng.draw(7, 0) == b


def test_counter_rng_walks_the_stream():
    c = CounterRng(9, counter=5)
    vals = [c.next_u64() for _ in range(4)]
    assert vals == [rng.draw(9, 5 + i) for i in range(4)]
    assert c.counter == 9


def test_seeds_decorrelate():
    counters = np.arange(64, dtype=np.uint64)
    a = rng.draw_array(1, counters)
    b = rng.draw_array(2, counters)
    assert not np.any(a == b)


def test_seed_wraps_at_64_bits():
    assert rng.draw(1 << 64, 0) == rng.draw(0, 0)
