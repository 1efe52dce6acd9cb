"""Versioned binary checkpoint container.

Layout: an 8-byte magic with version, a little-endian uint64 header length,
a UTF-8 JSON header, then the raw array payloads. The header carries
arbitrary JSON metadata plus the shape table; payloads are float64,
row-major, little-endian, in the header's order (names sorted). Round
trips are bit-exact, which is what makes resumed runs reproduce the
uninterrupted trajectory.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import CheckpointError, ShapeError

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint"]

MAGIC = b"LRPCKP01"


def save_checkpoint(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    table = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"checkpoint array {name!r} must be 2-D, got ndim={arr.ndim}")
        table.append({"name": name, "rows": arr.shape[0], "cols": arr.shape[1]})
        payload += arr.astype("<f8").tobytes(order="C")
    header = json.dumps({"meta": meta, "arrays": table}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(payload)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises CheckpointError (a ValueError) if the file is not a checkpoint, if
    its length field or header is cut short or cannot be decoded, or if its
    payload is shorter or longer than the header's array table says.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(
                f"{path}: not a checkpoint file (magic {magic!r}, expected {MAGIC!r})"
            )
        length_field = fh.read(8)
        if len(length_field) != 8:
            raise CheckpointError(f"{path}: truncated in the header length field")
        (header_len,) = struct.unpack("<Q", length_field)
        if header_len > size - fh.tell():
            raise CheckpointError(
                f"{path}: header length {header_len} exceeds the {size - fh.tell()} bytes left"
            )
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            meta = header["meta"]
            table = [(e["name"], int(e["rows"]), int(e["cols"])) for e in header["arrays"]]
            if any(rows < 0 or cols < 0 for _, rows, cols in table):
                raise ValueError("negative array shape")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: undecodable header ({exc})") from exc
        expected = sum(8 * rows * cols for _, rows, cols in table)
        left = size - fh.tell()
        if left < expected:
            raise CheckpointError(f"{path}: payload truncated ({left} of {expected} bytes)")
        if left > expected:
            raise CheckpointError(f"{path}: {left - expected} trailing bytes after the payload")
        arrays: dict[str, np.ndarray] = {}
        for name, rows, cols in table:
            buf = fh.read(rows * cols * 8)
            if len(buf) != rows * cols * 8:
                raise CheckpointError(f"{path}: truncated while reading {name!r}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(rows, cols)
    return meta, arrays
