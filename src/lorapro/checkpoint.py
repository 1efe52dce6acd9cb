"""Versioned binary checkpoint container.

Layout (format 3): an 8-byte magic with version, a little-endian uint64
header length, a UTF-8 JSON header (metadata and the shape table), the
SHA-256 of the header and payload bytes, then the raw array payloads:
float64, row-major, little-endian, in the header's order (names sorted).
Round trips are bit-exact, which is what makes resumed runs
reproduce the uninterrupted trajectory. A save writes a temporary file in
the target's directory, syncs it and renames it over the target, so a save
that fails partway leaves any earlier checkpoint at that path as it was and
no temporary file behind.

A save streams the payload: one pass over the arrays checks their shapes and
hashes them after the header, a second writes them, both through a byte view
of each array, so it holds no copy of the payload (only an array that is not
already C-contiguous little-endian float64 is converted, into a copy of its
own). A load reads each array straight into the array it returns, hashing it
as it goes, so it too holds the payload once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

from .errors import CheckpointError, ShapeError

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint"]

MAGIC = b"LRPCKP03"


def save_checkpoint(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` and the 2-D ``arrays`` to ``path``; see the module docstring.

    Raises, before any file is created, CheckpointError if ``meta`` is not a
    dict (``load_checkpoint`` reads only an object back) and ShapeError if an
    array is not 2-D.
    """
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint field 'meta' must be a dict, got {type(meta).__name__}")
    table, views = [], []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        if arr.ndim != 2:
            raise ShapeError(f"checkpoint array {name!r} must be 2-D, got ndim={arr.ndim}")
        table.append({"name": name, "rows": arr.shape[0], "cols": arr.shape[1]})
        views.append(memoryview(arr.reshape(-1).view(np.uint8)))
    header = json.dumps({"meta": meta, "arrays": table}, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(header)
    for view in views:
        digest.update(view)
    _write_atomically(path, [MAGIC, struct.pack("<Q", len(header)), header, digest.digest(),
                             *views])


def _write_atomically(path, chunks) -> None:
    """Write the byte ``chunks`` to ``path`` whole or not at all: into a temporary
    file beside it, synced and renamed over it; a failure removes the temporary file."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises CheckpointError (a ValueError) if the file is not a format-3
    checkpoint, if its length field or header is cut short or cannot be
    decoded (array names that are not distinct strings count as
    undecodable), if the header's ``meta`` is not a JSON object, if its payload
    is shorter or longer than the header's array table says, or if its
    header and payload do not hash to its SHA-256.
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
        header_bytes = fh.read(header_len)
        received = hashlib.sha256(header_bytes)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            meta = header["meta"]
            table = [(e["name"], int(e["rows"]), int(e["cols"])) for e in header["arrays"]]
            if any(rows < 0 or cols < 0 for _, rows, cols in table):
                raise ValueError("negative array shape")
            seen = set()
            for name, _, _ in table:
                if not isinstance(name, str) or name in seen:
                    raise ValueError(f"array name {name!r} is not a string or is repeated")
                seen.add(name)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: undecodable header ({exc})") from exc
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: header field 'meta' must be an object, got {meta!r}")
        digest = fh.read(received.digest_size)
        expected = sum(8 * rows * cols for _, rows, cols in table)
        left = size - fh.tell()
        if len(digest) != received.digest_size or left < expected:
            raise CheckpointError(f"{path}: payload truncated ({left} of {expected} bytes)")
        if left > expected:
            raise CheckpointError(f"{path}: {left - expected} trailing bytes after the payload")
        arrays: dict[str, np.ndarray] = {}
        for name, rows, cols in table:
            arr = np.empty((rows, cols), dtype="<f8")
            view = memoryview(arr.reshape(-1).view(np.uint8))
            if fh.readinto(view) != len(view):
                raise CheckpointError(f"{path}: payload truncated while reading")
            received.update(view)
            arrays[name] = arr.astype(np.float64, copy=False)  # a copy only off little-endian
    if received.digest() != digest:
        raise CheckpointError(f"{path}: SHA-256 of the header and payload does not match")
    return meta, arrays
