"""Embedding file formats.

Binary layout: magic ``EMB1``, then little-endian uint32 count and
dimension, then count*dim little-endian float32 values row-major, then an
optional block of newline-separated UTF-8 ids (one per vector). A JSONL
alternative with one ``{"id": ..., "values": [...]}`` object per line is
accepted interchangeably; readers sniff the magic bytes.
"""

from __future__ import annotations

import io
import json
import os
import struct
from typing import IO, Iterable, Union

import numpy as np

from .embedcore import EmbeddingSet
from .jsonl import InputError, iter_json_objects, want_text

__all__ = ["MAGIC", "read_embeddings", "write_embeddings"]

MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")

Source = Union[str, os.PathLike, IO[bytes]]


def _read_bytes(source: Source) -> bytes:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    return source.read()


def _decode_binary(blob: bytes) -> EmbeddingSet:
    if len(blob) < len(MAGIC) + _HEADER.size:
        raise ValueError("embedding file truncated before header")
    count, dim = _HEADER.unpack_from(blob, len(MAGIC))
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    offset = len(MAGIC) + _HEADER.size
    payload = count * dim * 4
    if len(blob) < offset + payload:
        raise ValueError(
            f"embedding file truncated: expected {payload} data bytes, "
            f"got {len(blob) - offset}"
        )
    vectors = np.frombuffer(
        blob, dtype="<f4", count=count * dim, offset=offset
    ).reshape(count, dim)
    ids = None
    tail = blob[offset + payload :]
    if tail:
        ids = tail.decode("utf-8").split("\n")
        if len(ids) != count:
            raise ValueError(f"expected {count} ids, found {len(ids)}")
    # copy: frombuffer views are read-only over the input bytes
    return EmbeddingSet(vectors.copy(), ids)


_NUMBER_TYPES = frozenset({int, float})


def _decode_jsonl(lines: Iterable[str], source: str) -> EmbeddingSet:
    rows: list[np.ndarray] = []
    ids: list[str] = []
    have_ids = 0
    for lineno, rec in iter_json_objects(lines, source):
        values = rec.get("values")
        numbers = isinstance(values, list) and _NUMBER_TYPES.issuperset(map(type, values))
        if not numbers or not values:
            raise InputError("field 'values' must be a non-empty array of numbers", lineno, source)
        try:
            rows.append(np.asarray(values, dtype=np.float32))
        except OverflowError as exc:  # an integer literal beyond the float range
            raise InputError(f"field 'values': {exc}", lineno, source) from exc
        if rec.get("id") is not None:
            ids.append(want_text(rec, "id", lineno, source))
            have_ids += 1
        else:
            ids.append("")
    if not rows:
        raise InputError("no embedding records found", source=source)
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise InputError(f"inconsistent embedding dimensions: {sorted(dims)}", source=source)
    if have_ids not in (0, len(rows)):
        raise InputError("either every record carries an id or none does", source=source)
    return EmbeddingSet(np.stack(rows), ids if have_ids else None)


def read_embeddings(source: Source) -> EmbeddingSet:
    """Load an embedding set from a binary or JSONL file (auto-detected)."""
    blob = _read_bytes(source)
    if blob.startswith(MAGIC):
        return _decode_binary(blob)
    if isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
    else:
        name = getattr(source, "name", "<input>")
    # Split lines as a text-mode file does, so an id may hold U+2028.
    return _decode_jsonl(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8"), name)


def _encode_binary(es: EmbeddingSet) -> bytes:
    parts = [MAGIC, _HEADER.pack(len(es), es.dim)]
    parts.append(np.ascontiguousarray(es.vectors, dtype="<f4").tobytes())
    if es.ids is not None:
        for item in es.ids:
            if "\n" in item:
                raise ValueError(f"embedding id may not contain a newline: {item!r}")
        parts.append("\n".join(es.ids).encode("utf-8"))
    return b"".join(parts)


def _encode_jsonl(es: EmbeddingSet) -> bytes:
    lines = []
    f32 = np.ascontiguousarray(es.vectors, dtype=np.float32)
    for i, row in enumerate(f32):
        rec = {}
        if es.ids is not None:
            rec["id"] = es.ids[i]
        rec["values"] = [float(x) for x in row]
        lines.append(json.dumps(rec))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_embeddings(
    es: EmbeddingSet, sink: Source, fmt: str = "binary"
) -> int:
    """Write an embedding set in the given format; returns bytes written.

    Both formats store single precision, so writing a float32 set and
    reading it back is bit-exact.
    """
    if fmt == "binary":
        blob = _encode_binary(es)
    elif fmt == "jsonl":
        blob = _encode_jsonl(es)
    else:
        raise ValueError(f"fmt must be 'binary' or 'jsonl', got {fmt!r}")
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as fh:
            fh.write(blob)
    else:
        sink.write(blob)
    return len(blob)
