"""Dataset generation, encoding, and file-format tests."""

import hashlib
import struct

import numpy as np
import pytest

from ndlite import dataset, rng, speck
from ndlite.dataset import (DEFAULT_DELTA, RANDOM, REAL, Dataset, gen_dataset,
                            load_dataset, save_dataset)

from speck_reference import CounterRng, encode_input, make_pair, samples


def bits_to_words(bits):
    """[4, 16, g] bit tensor back to uint16 words [4, g], MSB-first."""
    weights = (1 << np.arange(15, -1, -1)).astype(np.uint32)
    return np.tensordot(bits.astype(np.uint32), weights, axes=([1], [0]))


# ---------------------------------------------------------------- pair level

def test_real_pair_zero_rounds_differs_by_delta():
    r = CounterRng(3)
    key = (1, 2, 3, 4)
    c0, c1 = make_pair(REAL, key, r, rounds=0)
    assert (c0[0] ^ c1[0], c0[1] ^ c1[1]) == DEFAULT_DELTA


def test_random_pair_zero_rounds_is_fresh_draw():
    r = CounterRng(3)
    c0, c1 = make_pair(RANDOM, (1, 2, 3, 4), r, rounds=0)
    # Both plaintexts come straight from the stream at rounds=0.
    s = CounterRng(3)
    p = s.next_u64()
    q = s.next_u64()
    assert c0 == ((p >> 16) & 0xFFFF, p & 0xFFFF)
    assert c1 == ((q >> 16) & 0xFFFF, q & 0xFFFF)


def test_real_pair_encrypts_both_sides():
    r = CounterRng(11)
    key = (0x1918, 0x1110, 0x0908, 0x0100)
    c0, c1 = make_pair(REAL, key, r, rounds=5)
    s = CounterRng(11)
    p = s.next_u64()
    p0 = ((p >> 16) & 0xFFFF, p & 0xFFFF)
    p1 = (p0[0] ^ DEFAULT_DELTA[0], p0[1] ^ DEFAULT_DELTA[1])
    ks = speck.key_schedule(key, 5)
    assert c0 == speck.encrypt(p0, ks)
    assert c1 == speck.encrypt(p1, ks)


# ------------------------------------------------------------------ encoding

def test_encode_input_bit_positions():
    pair = ((0x8000, 0x0001), (0x0040, 0xFFFF))
    t = encode_input([pair])
    assert t.shape == (4, 16, 1)
    assert t.dtype == np.uint8
    expect = np.zeros((4, 16), dtype=np.uint8)
    expect[0, 0] = 1        # 0x8000: MSB first
    expect[1, 15] = 1       # 0x0001: LSB last
    expect[2, 9] = 1        # 0x0040: bit 6
    expect[3, :] = 1        # 0xFFFF
    assert np.array_equal(t[:, :, 0], expect)


def test_encode_input_depth_order():
    pairs = [((i, 0), (0, i)) for i in (1, 2, 3)]
    t = encode_input(pairs)
    assert t.shape == (4, 16, 3)
    words = bits_to_words(t)
    assert list(words[0]) == [1, 2, 3]
    assert list(words[3]) == [1, 2, 3]
    assert not words[1].any() and not words[2].any()


def test_encode_input_rejects_empty():
    with pytest.raises(ValueError):
        encode_input([])


# ---------------------------------------------------------------- generation

def test_gen_counts_and_balance():
    ds = gen_dataset(n_per_class=80, rounds=3, group_size=8, seed=0)
    assert len(ds) == 20
    assert ds.bits.shape == (20, 4, 16, 8)
    assert int(ds.labels.sum()) == 10
    # Alternating storage order: even indices real.
    assert list(ds.labels[:4]) == [1, 0, 1, 0]


def test_gen_minimal():
    ds = gen_dataset(n_per_class=8, rounds=1, group_size=8, seed=5)
    assert len(ds) == 2
    assert sorted(ds.labels.tolist()) == [0, 1]


def test_gen_group_size_one():
    ds = gen_dataset(n_per_class=16, rounds=2, group_size=1, seed=1)
    assert ds.bits.shape == (32, 4, 16, 1)


def test_gen_validates_arguments():
    with pytest.raises(ValueError):
        gen_dataset(n_per_class=10, rounds=3, group_size=8)
    with pytest.raises(ValueError):
        gen_dataset(n_per_class=0, rounds=3, group_size=1)
    with pytest.raises(ValueError):
        gen_dataset(n_per_class=8, rounds=3, group_size=8, delta=(0x10000, 0))


def test_gen_deterministic():
    a = gen_dataset(n_per_class=64, rounds=5, group_size=8, seed=77)
    b = gen_dataset(n_per_class=64, rounds=5, group_size=8, seed=77)
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.labels, b.labels)
    c = gen_dataset(n_per_class=64, rounds=5, group_size=8, seed=78)
    assert not np.array_equal(a.bits, c.bits)


def test_gen_zero_rounds_real_keeps_delta_random_does_not():
    ds = gen_dataset(n_per_class=50_000, rounds=0, group_size=1, seed=9)
    words = np.stack([bits_to_words(ds.bits[i]) for i in range(len(ds))])
    dl = words[:, 0, 0] ^ words[:, 2, 0]
    dr = words[:, 1, 0] ^ words[:, 3, 0]
    real = ds.labels == 1
    assert np.all(dl[real] == DEFAULT_DELTA[0])
    assert np.all(dr[real] == DEFAULT_DELTA[1])
    hits = np.sum((dl[~real] == DEFAULT_DELTA[0]) & (dr[~real] == DEFAULT_DELTA[1]))
    # 50k uniform pairs hit a fixed 32-bit difference with prob ~1e-5.
    assert hits <= 1


def test_gen_one_round_difference_is_deterministic():
    # The chosen input difference passes round 1 with probability 1.
    ds = gen_dataset(n_per_class=1000, rounds=1, group_size=1, seed=4)
    words = np.stack([bits_to_words(ds.bits[i]) for i in range(len(ds))])
    real = ds.labels == 1
    dl = words[real, 0, 0] ^ words[real, 2, 0]
    dr = words[real, 1, 0] ^ words[real, 3, 0]
    assert np.all(dl == 0x8000)
    assert np.all(dr == 0x8000)


def test_gen_matches_scalar_path():
    g = 4
    seed = 123
    ds = gen_dataset(n_per_class=3 * g, rounds=6, group_size=g, seed=seed)
    for s in range(len(ds)):
        label = int(ds.labels[s])
        pairs = []
        for d in range(g):
            p = s * g + d
            kv = rng.draw(seed, 4 * p)
            key = tuple((kv >> sh) & 0xFFFF for sh in (48, 32, 16, 0))
            r = CounterRng(seed, counter=4 * p + 1)
            pairs.append(make_pair(label, key, r, rounds=6))
        assert np.array_equal(ds.bits[s], encode_input(pairs))


@pytest.mark.parametrize("n_per_class, rounds, g, seed, digest", [
    (4096, 3, 1, 1,
     "a191f7be75b865637bcd2da2bfb80dee168f56753615f277eeda3b943ed602d6"),
    (512, 5, 8, 2,
     "0a699bc4131192904fd95fc6c3ef7c21593afbcf12729382a22dd64822c329ff"),
], ids=["g1", "g8"])
def test_gen_bits_are_pinned(n_per_class, rounds, g, seed, digest):
    # Digests from a shift-and-mask encoder, a reference independent of
    # the np.unpackbits one.
    ds = gen_dataset(n_per_class, rounds, group_size=g, seed=seed)
    assert ds.bits.dtype == np.uint8
    assert hashlib.sha256(ds.bits.tobytes()).hexdigest() == digest


def test_gen_label_soundness_from_recorded_inputs():
    seed, g = 2, 8
    ds = gen_dataset(n_per_class=32, rounds=4, group_size=g, seed=seed)
    # pair p draws its key at counter 4p, its plaintexts at 4p+1 and 4p+2
    base = np.arange(len(ds) * g, dtype=np.uint64) * np.uint64(4)
    keys, p_u64, q_u64 = (rng.draw_array(seed, base + np.uint64(k))
                          for k in range(3))
    for s in range(len(ds)):
        label = int(ds.labels[s])
        pairs = []
        for d in range(ds.group_size):
            p = s * g + d
            key = tuple(int(keys[p] >> np.uint64(sh)) & 0xFFFF
                        for sh in (48, 32, 16, 0))
            ks = speck.key_schedule(key, ds.rounds)
            p0 = (int(p_u64[p]) >> 16 & 0xFFFF, int(p_u64[p]) & 0xFFFF)
            if label == REAL:
                p1 = (p0[0] ^ ds.delta[0], p0[1] ^ ds.delta[1])
            else:
                p1 = (int(q_u64[p]) >> 16 & 0xFFFF, int(q_u64[p]) & 0xFFFF)
            pairs.append((speck.encrypt(p0, ks), speck.encrypt(p1, ks)))
        assert np.array_equal(ds.bits[s], encode_input(pairs))


def test_gen_custom_delta():
    delta = (0x2800, 0x0010)
    ds = gen_dataset(n_per_class=100, rounds=0, group_size=1, seed=6, delta=delta)
    words = np.stack([bits_to_words(ds.bits[i]) for i in range(len(ds))])
    real = ds.labels == 1
    assert np.all((words[real, 0, 0] ^ words[real, 2, 0]) == delta[0])
    assert np.all((words[real, 1, 0] ^ words[real, 3, 0]) == delta[1])


def test_float_inputs_view():
    ds = gen_dataset(n_per_class=16, rounds=3, group_size=8, seed=0)
    x, y = ds.float_inputs()
    assert x.dtype == np.float32
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert np.array_equal(x.astype(np.uint8), ds.bits)
    assert y is ds.labels


def test_samples_iterator():
    ds = gen_dataset(n_per_class=8, rounds=2, group_size=4, seed=0)
    got = list(samples(ds))
    assert len(got) == len(ds)
    assert got[0].label == REAL and got[1].label == RANDOM
    assert np.array_equal(got[3].bits, ds.bits[3])


# ---------------------------------------------------------------- file format

def test_file_roundtrip(tmp_path):
    ds = gen_dataset(n_per_class=40, rounds=7, group_size=8, seed=31,
                     delta=(0x0040, 0x0000))
    path = tmp_path / "a.nds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.bits, ds.bits)
    assert np.array_equal(back.labels, ds.labels)
    assert back.rounds == 7 and back.group_size == 8 and back.seed == 31
    assert back.delta == (0x0040, 0x0000)


def test_file_layout_and_size(tmp_path):
    ds = gen_dataset(n_per_class=12, rounds=3, group_size=4, seed=8)
    path = tmp_path / "b.nds"
    save_dataset(ds, path)
    raw = path.read_bytes()
    g = ds.group_size
    assert len(raw) == 32 + len(ds) * (1 + 8 * g)
    magic, version, rounds, group_size, n, seed, dl, dr = struct.unpack_from(
        "<4s4IQ2H", raw)
    assert magic == b"NDS1" and version == 1
    assert (rounds, group_size, n, seed) == (3, 4, len(ds), 8)
    assert (dl, dr) == DEFAULT_DELTA


def test_file_payload_is_big_endian_word_dump(tmp_path):
    # Packed sample bytes must equal the ciphertext words dumped big-endian
    # in [channel][pair] order, prefixed by the label byte.
    ds = gen_dataset(n_per_class=4, rounds=2, group_size=2, seed=15)
    path = tmp_path / "c.nds"
    save_dataset(ds, path)
    raw = path.read_bytes()[32:]
    rec = 1 + 8 * ds.group_size
    for s in range(len(ds)):
        blob = raw[s * rec:(s + 1) * rec]
        assert blob[0] == ds.labels[s]
        words = bits_to_words(ds.bits[s])
        expect = b"".join(struct.pack(">H", int(words[c, d]))
                          for c in range(4) for d in range(ds.group_size))
        assert blob[1:] == expect


def test_file_save_is_deterministic(tmp_path):
    ds = gen_dataset(n_per_class=24, rounds=5, group_size=8, seed=2)
    p1, p2 = tmp_path / "x.nds", tmp_path / "y.nds"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    h = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert h(p1) == h(p2)


def test_load_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.nds"
    save_dataset(gen_dataset(n_per_class=8, rounds=1, group_size=8, seed=0), good)
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "bad_magic.nds"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        load_dataset(bad_magic)

    truncated = tmp_path / "trunc.nds"
    truncated.write_bytes(bytes(raw[:-3]))
    with pytest.raises(ValueError):
        load_dataset(truncated)

    short = tmp_path / "short.nds"
    short.write_bytes(b"NDS1")
    with pytest.raises(ValueError):
        load_dataset(short)
