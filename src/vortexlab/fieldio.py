"""Binary field files, run logs, and heatmap export.

Field file layout: 16-byte magic, 8-byte little-endian header length, JSON
header (grid shape, backend, field name, endianness), then raw little-endian
float64 values in row-major order.  Headers are serialized with sorted keys
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import ConfigError

MAGIC = b"VORTEXLABFIELD\x00\x00"

__all__ = ["MAGIC", "write_field", "read_field", "sha256_file",
           "write_jsonl", "write_pgm"]


def write_field(path, values, backend, resolution, name):
    values = np.ascontiguousarray(values, dtype="<f8")
    header = {
        "backend": backend,
        "dtype": "<f8",
        "endianness": "little",
        "field": name,
        "order": "C",
        "resolution": int(resolution),
        "shape": list(values.shape),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(values.tobytes())
    return header


def read_field(path):
    """(values, header) of a field file. A file without the magic, a
    header that is not a table with a ``shape`` of two positive integers,
    or a payload shorter than that shape, is a ConfigError naming it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(16) != MAGIC:
            raise ConfigError(f"{path}: not a field file (bad magic)")
        hlen = int.from_bytes(fh.read(8), "little")
        try:
            header = json.loads(fh.read(min(hlen, size)).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: malformed field header") from exc
        shape = header.get("shape") if isinstance(header, dict) else None
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n > 0 for n in shape)):
            raise ConfigError(f"{path}: malformed field header: 'shape' "
                              "must be a list of 2 positive integers")
        count = shape[0] * shape[1]
        if size - fh.tell() < 8 * count:
            raise ConfigError(f"{path}: truncated field payload")
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
    return data.reshape(shape).astype(np.float64), header


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=float) + "\n")


def write_pgm(path, values):
    """8-bit binary PGM (P5) with linear min-max scaling; sidecar JSON
    records the scaling so the image is invertible."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ConfigError("field contains non-finite entries; cannot export")
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    span = vmax - vmin
    if span == 0.0:
        scaled = np.zeros_like(values)
    else:
        scaled = (values - vmin) / span
    img = np.round(scaled * 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())
    meta = {"min": vmin, "max": vmax, "shape": [h, w], "scaling": "linear"}
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
    return meta
