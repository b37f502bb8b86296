"""Checkpoint container: manifest.json + params.bin in a directory.

The manifest carries the format version, arbitrary run metadata, and one
entry per tensor (name, shape, precision tag, byte offset); params.bin is
the concatenation of the raw little-endian array bytes in sorted-name
order, so identical parameters always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .autodiff import Tensor

FORMAT_VERSION = 1

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}
_ENTRY_KEYS = ("name", "dtype", "shape", "offset", "nbytes")


def write_replace(path, data: bytes) -> None:
    """Write through a temp file next to path and os.replace: path ends up
    either as it was or holding all of data, and a failed write takes its
    temp file with it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    # Old manifest out, params.bin in, new manifest in: a crash part way leaves
    # no manifest rather than one describing a missing, partial or older blob.
    (path / "manifest.json").unlink(missing_ok=True)
    write_replace(path / "params.bin", bytes(blob))
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_replace(path / "manifest.json", text.encode())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    manifest_file = path / "manifest.json"
    if not manifest_file.exists():
        raise FileNotFoundError(f"no checkpoint manifest at {manifest_file}")
    try:
        manifest = json.loads(manifest_file.read_text())
    except (ValueError, RecursionError) as e:  # not JSON, an integer too long, or nested too deep
        raise ValueError(f"checkpoint manifest is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError("checkpoint manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ValueError("checkpoint manifest has no 'tensors' list")
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"checkpoint manifest 'extra' is not a JSON object: {extra!r}")
    blob = (path / "params.bin").read_bytes()
    params: dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError(f"manifest entry #{i} has no 'name'")
        name = entry["name"]
        missing = [key for key in _ENTRY_KEYS if key not in entry]
        if missing:
            raise ValueError(f"tensor {name!r} has no {missing[0]!r}")
        tag, shape, start, nbytes = (entry[key] for key in _ENTRY_KEYS[1:])
        if not isinstance(shape, list) or not all(type(n) is int for n in (start, nbytes, *shape)):
            raise ValueError(f"tensor {name!r} needs an integer offset, nbytes and shape list")
        if nbytes < 0 or min(shape, default=0) < 0:
            raise ValueError(f"tensor {name!r} has negative sizes (nbytes {nbytes}, shape {shape})")
        if tag not in _DTYPE_TAGS:
            raise ValueError(f"tensor {name!r} has unknown dtype tag {tag!r}")
        dt = np.dtype(_DTYPE_TAGS[tag])
        if start < 0 or start + nbytes > len(blob):
            raise ValueError(
                f"tensor {name!r} spans bytes {start}..{start + nbytes} of {len(blob)} in params.bin"
            )
        if nbytes != math.prod(shape) * dt.itemsize:
            raise ValueError(f"tensor {name!r} has {nbytes} bytes, not the size of {tag} {shape}")
        arr = np.frombuffer(blob[start : start + nbytes], dtype=dt)
        params[name] = arr.reshape(shape).astype(tag)
    return params, extra
