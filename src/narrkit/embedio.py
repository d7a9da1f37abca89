"""Embedding file formats.

Binary layout: magic ``EMB1``, then little-endian uint32 count and
dimension, then count*dim little-endian float32 values row-major, then an
optional block of newline-separated UTF-8 ids (one per vector). A JSONL
alternative with one ``{"id": ..., "values": [...]}`` object per line is
accepted interchangeably; readers sniff the magic bytes.

Memory: a set is held once. The reader reads a binary payload straight
into the array that becomes the set's vectors and decodes JSONL line by
line; the writer sends the header, the vector buffer and the id block (or
one JSONL line at a time) to the sink without joining them first.
"""

from __future__ import annotations

import io
import json
import os
import struct
from typing import IO, Iterable, Union

import numpy as np

from .embedcore import EmbeddingSet
from .jsonl import TEXT, InputError, iter_json_objects, want_str

__all__ = ["MAGIC", "read_embeddings", "write_embeddings"]

MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")

Source = Union[str, os.PathLike, IO[bytes]]


def _decode_binary(fh: IO[bytes]) -> EmbeddingSet:
    header = fh.read(len(MAGIC) + _HEADER.size)
    if len(header) < len(MAGIC) + _HEADER.size:
        raise ValueError("embedding file truncated before header")
    count, dim = _HEADER.unpack_from(header, len(MAGIC))
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    payload = count * dim * 4
    here = fh.tell()
    got = fh.seek(0, io.SEEK_END) - here  # sized before allocating: the header may claim any size
    fh.seek(here)
    if got >= payload:
        vectors = np.empty((count, dim), dtype="<f4")
        got = fh.readinto(vectors)  # the payload lands in the set's own buffer
    if got < payload:
        raise ValueError(f"embedding file truncated: expected {payload} data bytes, got {got}")
    ids = None
    tail = fh.read()
    if tail:
        try:
            ids = tail.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:  # name the id that holds the first bad byte
            number = tail.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"invalid UTF-8 in id {number}") from None
        if len(ids) != count:
            raise ValueError(f"expected {count} ids, found {len(ids)}")
        if "" in ids:
            raise ValueError(f"embedding id {ids.index('') + 1} is empty")
    return EmbeddingSet(vectors, ids)


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
            with np.errstate(over="ignore"):  # rejected just below, by line
                row = np.asarray(values, dtype=np.float32)
            finite = np.isfinite(row).all()
        except OverflowError:  # an integer literal beyond the float range
            finite = False
        if not finite:
            raise InputError("field 'values' exceeds the float32 range", lineno, source)
        rows.append(row)
        if rec.get("id") is not None:
            ids.append(want_str(rec, "id", lineno, source))
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


def _read(fh: IO[bytes], name: str) -> EmbeddingSet:
    if not fh.seekable():  # a pipe: held whole, so that it can be sniffed and sized
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    binary = fh.read(len(MAGIC)) == MAGIC
    fh.seek(start)
    if binary:
        try:
            return _decode_binary(fh)
        except ValueError as exc:  # the layout checks, the id block and EmbeddingSet's
            raise InputError(str(exc), source=name) from exc
    # Split lines as a text-mode file does, so an id may hold U+2028.
    text = io.TextIOWrapper(fh, **TEXT)
    try:
        return _decode_jsonl(text, name)
    finally:
        text.detach()  # leaves a caller's stream open


def read_embeddings(source: Source) -> EmbeddingSet:
    """Load an embedding set from a binary or JSONL file (auto-detected).

    A binary set's vectors are a writable float32 array that owns the
    file's payload; no other copy of it is made.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return _read(fh, os.fspath(source))
    return _read(source, getattr(source, "name", "<input>"))


def _check_binary_ids(ids: list[str]) -> None:
    """Raise ValueError unless the binary id block can hold every id."""
    for number, item in enumerate(ids, start=1):
        if "\n" in item:
            raise ValueError(f"embedding id {number} may not contain a newline: {item!r}")


def _encode_binary(es: EmbeddingSet) -> list:
    parts = [MAGIC, _HEADER.pack(len(es), es.dim)]
    parts.append(np.ascontiguousarray(es.vectors, dtype="<f4"))
    if es.ids is not None:
        _check_binary_ids(es.ids)
        parts.append("\n".join(es.ids).encode("utf-8"))
    return parts


def _encode_jsonl(es: EmbeddingSet) -> Iterable[bytes]:
    f32 = np.ascontiguousarray(es.vectors, dtype=np.float32)
    for i, row in enumerate(f32):
        rec = {}
        if es.ids is not None:
            rec["id"] = es.ids[i]
        rec["values"] = [float(x) for x in row]
        yield (json.dumps(rec) + "\n").encode("utf-8")
    if not len(f32):
        yield b"\n"  # an empty set is one blank line


def _write_parts(fh: IO[bytes], parts: Iterable) -> int:
    written = 0
    for part in parts:
        fh.write(part)
        written += memoryview(part).nbytes
    return written


def write_embeddings(
    es: EmbeddingSet, sink: Source, fmt: str = "binary"
) -> int:
    """Write an embedding set in the given format; returns bytes written.

    Both formats store single precision, so writing a float32 set and
    reading it back is bit-exact. The output is written part by part, so a
    float32 set is never copied.
    """
    if fmt == "binary":
        parts = _encode_binary(es)
    elif fmt == "jsonl":
        parts = _encode_jsonl(es)
    else:
        raise ValueError(f"fmt must be 'binary' or 'jsonl', got {fmt!r}")
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as fh:
            return _write_parts(fh, parts)
    return _write_parts(sink, parts)
