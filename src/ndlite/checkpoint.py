"""Versioned weight files: JSON header plus raw float32 payload.

Layout: magic ``NDWF``, little-endian uint32 header length, UTF-8 JSON
header, then every tensor's float32 little-endian bytes concatenated in
header declaration order. The header records tensor names and shapes,
arbitrary JSON metadata (quantization stage, step sizes, model config),
and a sha256 checksum over the payload.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

_MAGIC = b"NDWF"
_VERSION = 1


def save_weights(path, tensors, meta=None):
    """Write named arrays (dict, order preserved) and JSON-able metadata."""
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f4").tobytes() for a in tensors.values())
    header = {
        "version": _VERSION,
        "meta": meta or {},
        "tensors": [{"name": n, "shape": list(np.shape(a))}
                    for n, a in tensors.items()],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(payload)


def load_weights(path):
    """Returns (tensors: dict name -> float32 array, meta: dict)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a weight file")
    (hlen,) = struct.unpack_from("<I", raw, 4)
    if len(raw) < 8 + hlen:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # RecursionError: deep nesting
        raise ValueError(f"{path}: unreadable header: {e}") from None
    for key in ("version", "meta", "tensors", "payload_sha256"):
        if not isinstance(header, dict) or key not in header:
            raise ValueError(f"{path}: header has no {key!r}")
    if header["version"] != _VERSION:
        raise ValueError(f"{path}: unsupported version {header['version']}")
    payload = raw[8 + hlen:]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise ValueError(f"{path}: payload checksum mismatch")
    if not isinstance(header["tensors"], list):
        raise ValueError(f"{path}: header 'tensors' is not a list")
    tensors = {}
    off = 0
    for i, entry in enumerate(header["tensors"]):
        # type(d) is int, as JSON true and false load as bools, which are ints
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise ValueError(f"{path}: tensor entry {i} needs a str 'name' "
                             f"and a 'shape' list of non-negative ints")
        shape = tuple(entry["shape"])
        # numpy sizes a zero-size shape by its other dimensions too
        if math.prod(d for d in shape if d) > max(len(payload) // 4, 1):
            raise ValueError(f"{path}: tensor entry {i} has shape "
                             f"{list(shape)}, more than the payload holds")
        count = math.prod(shape)
        end = off + 4 * count
        if end > len(payload):
            raise ValueError(f"{path}: payload shorter than declared tensors")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=off)
        tensors[entry["name"]] = arr.reshape(shape).copy()
        off = end
    if off != len(payload):
        raise ValueError(f"{path}: {len(payload) - off} trailing payload bytes")
    return tensors, header["meta"]
