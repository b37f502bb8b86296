"""Checkpoint container: manifest.json + params.bin in a directory.

The manifest carries the format version, arbitrary run metadata, and one
entry per tensor (name, shape, precision tag, byte offset); params.bin is
the concatenation of the raw little-endian array bytes in sorted-name
order, so identical parameters always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .autodiff import Tensor

FORMAT_VERSION = 1

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(path, params: dict, extra: dict | None = None) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    blob = bytearray()
    for name in sorted(params):
        arr = params[name].data if isinstance(params[name], Tensor) else np.asarray(params[name])
        tag = arr.dtype.name
        if tag not in _DTYPE_TAGS:
            raise TypeError(f"unsupported dtype {tag} for {name}")
        raw = np.ascontiguousarray(arr).astype(_DTYPE_TAGS[tag], copy=False).tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": tag,
                "offset": len(blob),
                "nbytes": len(raw),
            }
        )
        blob.extend(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "extra": extra or {},
        "tensors": entries,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (path / "params.bin").write_bytes(bytes(blob))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    manifest_file = path / "manifest.json"
    if not manifest_file.exists():
        raise FileNotFoundError(f"no checkpoint manifest at {manifest_file}")
    manifest = json.loads(manifest_file.read_text())
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    blob = (path / "params.bin").read_bytes()
    params: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        name, tag, shape = entry["name"], entry["dtype"], entry["shape"]
        if tag not in _DTYPE_TAGS:
            raise ValueError(f"tensor {name!r} has unknown dtype tag {tag!r}")
        dt = np.dtype(_DTYPE_TAGS[tag])
        start, nbytes = entry["offset"], entry["nbytes"]
        if start < 0 or start + nbytes > len(blob):
            raise ValueError(
                f"tensor {name!r} spans bytes {start}..{start + nbytes} of {len(blob)} in params.bin"
            )
        if nbytes != math.prod(shape) * dt.itemsize:
            raise ValueError(f"tensor {name!r} has {nbytes} bytes, not the size of {tag} {shape}")
        arr = np.frombuffer(blob[start : start + nbytes], dtype=dt)
        params[name] = arr.reshape(shape).astype(tag)
    return params, manifest["extra"]
