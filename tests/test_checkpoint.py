"""Weight-file format tests."""

import re
import struct

import numpy as np
import pytest

from ndlite.checkpoint import load_weights, save_weights


def test_roundtrip(tmp_path):
    r = np.random.default_rng(0)
    tensors = {
        "conv0.w": r.normal(size=(32, 4, 1, 1)).astype(np.float32),
        "bn0.gamma": r.normal(size=32).astype(np.float32),
        "delta": np.float32(0.125),
    }
    meta = {"stage": "weights", "config": {"group_size": 8}}
    path = tmp_path / "m.ndw"
    save_weights(path, tensors, meta)
    back, meta2 = load_weights(path)
    assert meta2 == meta
    assert list(back) == list(tensors)
    for name in tensors:
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name], np.asarray(tensors[name], dtype=np.float32))
    assert back["delta"].shape == ()


def test_declaration_order_preserved(tmp_path):
    tensors = {f"t{i}": np.full(i + 1, float(i), dtype=np.float32) for i in range(5)}
    path = tmp_path / "o.ndw"
    save_weights(path, tensors)
    back, _ = load_weights(path)
    assert list(back) == [f"t{i}" for i in range(5)]


def test_payload_is_float32_le(tmp_path):
    path = tmp_path / "p.ndw"
    save_weights(path, {"x": np.array([1.0, -2.5], dtype=np.float64)})
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 4)
    payload = raw[8 + hlen:]
    assert payload == struct.pack("<2f", 1.0, -2.5)


def test_rejects_corruption(tmp_path):
    path = tmp_path / "c.ndw"
    save_weights(path, {"x": np.arange(4, dtype=np.float32)})
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.ndw"
    flipped = bytearray(raw)
    flipped[-1] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match="checksum"):
        load_weights(bad)

    notmagic = tmp_path / "nm.ndw"
    notmagic.write_bytes(b"ZZZZ" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        load_weights(notmagic)

    short = tmp_path / "s.ndw"
    short.write_bytes(bytes(raw[:6]))
    with pytest.raises(ValueError):
        load_weights(short)


@pytest.mark.parametrize("blob", [b"[" * 100_000 + b"]" * 100_000,
                                  b"{\xff}", b"{"],
                         ids=["deep", "not-utf8", "not-json"])
def test_rejects_unreadable_header(tmp_path, blob):
    path = tmp_path / "h.ndw"
    path.write_bytes(b"NDWF" + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: unreadable header")):
        load_weights(path)


def test_empty_tensor_dict(tmp_path):
    path = tmp_path / "e.ndw"
    save_weights(path, {}, {"note": "empty"})
    tensors, meta = load_weights(path)
    assert tensors == {} and meta == {"note": "empty"}
