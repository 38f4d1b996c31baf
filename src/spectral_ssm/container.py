"""JSON manifest + packed little-endian float64 payload, shared by parameter,
checkpoint and filter-bank serialization."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


def save_arrays(directory, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    chunks = []
    index = []
    offset = 0
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        chunks.append(data.tobytes())
        index.append({"name": name, "shape": list(data.shape), "offset": offset})
        offset += data.size
    payload = b"".join(chunks)
    (directory / "payload.f64le").write_bytes(payload)
    manifest = dict(meta)
    manifest["format_version"] = FORMAT_VERSION
    manifest["arrays"] = index
    manifest["checksum"] = hashlib.sha256(payload).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return directory


def load_arrays(directory) -> tuple[dict, dict[str, np.ndarray]]:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container format version {version!r}")
    payload = (directory / "payload.f64le").read_bytes()
    if hashlib.sha256(payload).hexdigest() != manifest["checksum"]:
        raise ValueError(f"container checksum mismatch in {directory}")
    flat = np.frombuffer(payload, dtype="<f8")
    arrays = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arrays[entry["name"]] = flat[start : start + n].reshape(shape).astype(np.float64)
    return manifest, arrays
