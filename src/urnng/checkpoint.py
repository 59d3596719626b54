"""Versioned binary checkpoints and atomic file writes.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, a JSON header (sorted keys; the array directory plus arbitrary
metadata), then every array as row-major little-endian float64 in directory
order.  Identical state always serializes to identical bytes, so
save -> load -> save round-trips exactly.
"""

from __future__ import annotations

import json
import operator
import os
import struct
import tempfile

import numpy as np

MAGIC = b"URNG"
VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or incompatible checkpoint file."""


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and interrupted writes leave the old content intact."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_checkpoint(path, arrays: dict[str, np.ndarray],
                    metadata: dict) -> None:
    """Serialize named float arrays plus JSON-compatible metadata."""
    names = sorted(arrays)
    header = {
        "arrays": [{"name": n, "shape": list(arrays[n].shape)}
                   for n in names],
        "metadata": metadata,
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<Q", len(blob)), blob]
    parts.extend(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes()
                 for n in names)
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_checkpoint; validates framing before trusting it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read {path}: {err}") from err
    if len(data) < 16 or data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", data[4:8])
    if version != VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, expected {VERSION}")
    (header_len,) = struct.unpack("<Q", data[8:16])
    if 16 + header_len > len(data):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: corrupt header: {err}") from err

    try:
        directory = [(entry["name"],
                      tuple(map(operator.index, entry["shape"])))
                     for entry in header["arrays"]]
        metadata = header["metadata"]
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed header: {err!r}") from err

    arrays: dict[str, np.ndarray] = {}
    offset = 16 + header_len
    for name, shape in directory:
        size = 8 * int(np.prod(shape, dtype=np.int64))
        if offset + size > len(data):
            raise CheckpointError(
                f"{path}: truncated payload at array {name!r}")
        flat = np.frombuffer(data[offset:offset + size], dtype="<f8")
        arrays[name] = flat.reshape(shape).astype(np.float64)
        offset += size
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return arrays, metadata
