"""Embedding file formats.

Binary layout: magic ``EMB1``, then little-endian uint32 count and
dimension, then count*dim little-endian float32 values row-major, then an
optional block of newline-separated UTF-8 ids (one per vector). A JSONL
alternative with one ``{"id": ..., "values": [...]}`` object per line is
accepted interchangeably; readers sniff the magic bytes.

Memory: no binary set is read whole unless asked. ``open_embeddings``
checks an ``EMB1`` file's header, payload size and id block without reading
the payload; its reader's ``blocks(lo, hi)`` reads rows lo..hi into a fresh
float32 array of _BLOCK rows at a time, and ``take(index)`` the listed rows,
by positional reads, so forked workers never share a file offset. A pipe's
bytes are held in memory. A JSONL set is held in memory too, decoded line
by line into one float32 array that grows in place by a quarter as it fills
and is trimmed to the records found.
``read_embeddings`` reads every row into one array. The writer sends the
header, each block of rows and the id block (or one JSONL line at a time) to
the sink without joining them first; ``_write_rows`` writes a set whose rows
a caller writes into the file itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import tempfile
from itertools import chain
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .embedcore import _BLOCK, EmbeddingSet, _as_rows, _blocks, _pwrite
from .jsonl import TEXT, InputError, iter_json_objects, want_str

__all__ = ["MAGIC", "EmbeddingFile", "open_embeddings", "read_embeddings", "write_embeddings"]

MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")

Source = Union[str, os.PathLike, IO[bytes]]


class EmbeddingFile:
    """An open ``EMB1`` set, whose rows are read block by block.

    Opening checks the header, the payload size and the id block, which
    follows the payload, and reads no row. ``blocks(lo, hi)`` reads rows
    lo..hi, _BLOCK at a time, and checks that each block is finite; a file
    that has become shorter since it was opened reads as truncated. Errors
    are InputErrors naming the file.
    """

    dtype = np.dtype("<f4")

    def __init__(self, fh: IO[bytes], name: str):
        self.name, self._fh = name, fh
        try:  # a file is read by position; an in-memory stream by seek and readinto
            self._fd = fh.fileno()
        except (AttributeError, io.UnsupportedOperation):
            self._fd = None
        try:
            self._read_layout()
        except ValueError as exc:  # the layout checks and the id block's
            raise InputError(str(exc), source=name) from exc

    def _read_layout(self) -> None:
        """Set shape and ids from the header and the id block, checking both and
        the payload's size."""
        fh = self._fh
        header = fh.read(len(MAGIC) + _HEADER.size)
        if len(header) < len(MAGIC) + _HEADER.size:
            raise ValueError("embedding file truncated before header")
        count, dim = _HEADER.unpack_from(header, len(MAGIC))
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.shape, self.ids = (count, dim), None
        self._offset, self._payload = fh.tell(), count * dim * 4
        got = fh.seek(0, io.SEEK_END) - self._offset
        if got < self._payload:
            raise ValueError(f"embedding file truncated: expected {self._payload} data bytes, got {got}")
        fh.seek(self._offset + self._payload)
        tail = fh.read()
        if not tail:
            return
        try:
            ids = tail.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:  # name the id that holds the first bad byte
            number = tail.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"invalid UTF-8 in id {number}") from None
        if len(ids) != count:
            raise ValueError(f"expected {count} ids, found {len(ids)}")
        if "" in ids:
            raise ValueError(f"embedding id {ids.index('') + 1} is empty")
        self.ids = ids

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]

    def _fill(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, C-contiguous float32, with the rows from row lo on; return it."""
        view = memoryview(out).cast("B")
        start = self._offset + lo * self.dim * 4
        got = 0
        while got < len(view):
            if self._fd is not None:
                n = os.preadv(self._fd, [view[got:]], start + got)
            else:
                self._fh.seek(start + got)
                n = self._fh.readinto(view[got:])
            if not n:  # the file is shorter now: say by how much, whichever row ran short
                size = self._fh.seek(0, io.SEEK_END) - self._offset
                raise InputError(f"embedding file truncated: expected {self._payload} data bytes, "
                                 f"got {size}", source=self.name)
            got += n
        return out

    def _finite(self, rows: np.ndarray) -> np.ndarray:
        if not np.isfinite(rows).all():
            raise InputError("embeddings must be finite", source=self.name)
        return rows

    def blocks(self, lo: int = 0, hi: int | None = None) -> Iterator[np.ndarray]:
        """Rows lo..hi (default: all), in fresh arrays of _BLOCK rows cut at lo,
        lo + _BLOCK, ..., each read as it is asked for."""
        hi = len(self) if hi is None else hi
        for first in range(lo, hi, _BLOCK):
            yield self._finite(self._fill(first, np.empty((min(_BLOCK, hi - first), self.dim), self.dtype)))

    def take(self, index: Sequence[int]) -> np.ndarray:
        """Rows index[0], index[1], ..., in that order, in one fresh array; each
        row is read by its own positional read."""
        rows = np.empty((len(index), self.dim), self.dtype)
        for row, i in zip(rows, index):
            self._fill(i, row)
        return self._finite(rows)

    def read(self) -> EmbeddingSet:
        """Every row, in one writable float32 array that no other copy shares."""
        vectors = np.empty(self.shape, self.dtype)
        for first in range(0, len(self), _BLOCK):
            self._finite(self._fill(first, vectors[first : first + _BLOCK]))
        return EmbeddingSet(vectors, self.ids)


_NUMBER_TYPES = frozenset({int, float})


@np.errstate(over="ignore")  # a value past float32 becomes inf, rejected by line below
def _decode_jsonl(lines: Iterable[str], source: str) -> EmbeddingSet:
    """Decode JSONL records into one float32 array, grown in place by a quarter
    (at least _BLOCK rows) whenever it is full and trimmed to the records found."""
    vectors = None
    ids: list[str] = []
    dims: set[int] = set()
    have_ids = 0
    for lineno, rec in iter_json_objects(lines, source):
        values = rec.get("values")
        numbers = isinstance(values, list) and _NUMBER_TYPES.issuperset(map(type, values))
        if not numbers or not values:
            raise InputError("field 'values' must be a non-empty array of numbers", lineno, source)
        try:
            row = np.asarray(values, dtype=np.float32)
            finite = np.isfinite(row).all()
        except OverflowError:  # an integer literal beyond the float range
            finite = False
        if not finite:
            raise InputError("field 'values' exceeds the float32 range", lineno, source)
        if vectors is None:  # stored as binary rows are, so that every set read is EMB1's dtype
            vectors = np.empty((_BLOCK, len(row)), EmbeddingFile.dtype)
        dims.add(len(row))
        if len(dims) == 1:  # else the set is rejected once every line is checked
            if len(ids) == len(vectors):
                vectors.resize((len(ids) + max(_BLOCK, len(ids) // 4), len(row)), refcheck=False)
            vectors[len(ids)] = row
        if rec.get("id") is not None:
            ids.append(want_str(rec, "id", lineno, source))
            have_ids += 1
        else:
            ids.append("")
    if not ids:
        raise InputError("no embedding records found", source=source)
    if len(dims) != 1:
        raise InputError(f"inconsistent embedding dimensions: {sorted(dims)}", source=source)
    if have_ids not in (0, len(ids)):
        raise InputError("either every record carries an id or none does", source=source)
    vectors.resize((len(ids), vectors.shape[1]), refcheck=False)  # in place, freeing the rest
    return EmbeddingSet(vectors, ids if have_ids else None)


def _open(fh: IO[bytes], name: str) -> EmbeddingSet | EmbeddingFile:
    if not fh.seekable():  # a pipe: held whole, so that it can be sniffed and sized
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    binary = fh.read(len(MAGIC)) == MAGIC
    fh.seek(start)
    if binary:
        return EmbeddingFile(fh, name)
    # Split lines as a text-mode file does, so an id may hold U+2028.
    text = io.TextIOWrapper(fh, **TEXT)
    try:
        return _decode_jsonl(text, name)
    finally:
        text.detach()  # leaves a caller's stream open


@contextlib.contextmanager
def open_embeddings(source: Source) -> Iterator[EmbeddingSet | EmbeddingFile]:
    """Open a binary or JSONL embedding set (auto-detected) for the kernels.

    Yields an EmbeddingFile for a binary file that can seek, whose rows are
    read as the kernels walk its blocks, and an EmbeddingSet, held in memory,
    for JSONL and for a pipe. A path is closed on exit; a caller's stream is
    left open. Both have ``len``, ``dim`` and ``ids``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield _open(fh, os.fspath(source))
    else:
        yield _open(source, getattr(source, "name", "<input>"))


def read_embeddings(source: Source) -> EmbeddingSet:
    """Load an embedding set from a binary or JSONL file (auto-detected).

    A binary set's vectors are a writable float32 array that owns the
    file's payload; no other copy of it is made.
    """
    with open_embeddings(source) as es:
        return es.read() if isinstance(es, EmbeddingFile) else es


def _check_binary_ids(ids: list[str]) -> None:
    """Raise ValueError unless the binary id block can hold every id."""
    for number, item in enumerate(ids, start=1):
        if "\n" in item:
            raise ValueError(f"embedding id {number} may not contain a newline: {item!r}")


def _id_block(ids: list[str] | None) -> bytes:
    if ids is None:
        return b""
    _check_binary_ids(ids)
    return "\n".join(ids).encode("utf-8")


Rows = Union[EmbeddingSet, EmbeddingFile]


def _encode_binary(es: Rows) -> Iterable:
    tail = _id_block(es.ids)  # checked before anything is written
    head = MAGIC + _HEADER.pack(len(es), es.dim)
    return chain([head], (np.ascontiguousarray(b, dtype="<f4") for b in _blocks(_as_rows(es))), [tail])


def _encode_jsonl(es: Rows) -> Iterable[bytes]:
    for first, block in zip(range(0, len(es), _BLOCK), _blocks(_as_rows(es))):
        for i, row in enumerate(np.asarray(block, dtype=np.float32), first):
            rec = {}
            if es.ids is not None:
                rec["id"] = es.ids[i]
            rec["values"] = row.tolist()
            yield (json.dumps(rec) + "\n").encode("utf-8")
    if not len(es):
        yield b"\n"  # an empty set is one blank line


def _write_parts(fh: IO[bytes], parts: Iterable) -> int:
    written = 0
    for part in parts:
        fh.write(part)
        written += memoryview(part).nbytes
    return written


def write_embeddings(
    es: Rows, sink: Source, fmt: str = "binary"
) -> int:
    """Write an embedding set, or a reader's set, in the given format; returns
    bytes written.

    Both formats store single precision, so writing a float32 set and
    reading it back is bit-exact. The output is written block by block, so a
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


def _write_rows(
    sink: IO[bytes], fmt: str, shape: tuple[int, int], fill: Callable[[int, int], list[str] | None]
) -> int:
    """Write a set of ``shape`` whose rows ``fill(fd, offset)`` writes itself, in
    EmbeddingFile.dtype, row k at byte ``offset + 4 * k * dim`` of file
    descriptor fd, returning the set's ids; return the bytes written to ``sink``.

    Binary output to a sink that can seek is written in place, all of it by
    positional writes at the sink's start: the header, fill's rows, then the id
    block. Any other output goes through an anonymous temporary file that fill
    writes as binary, which is then copied, or encoded as JSONL, into ``sink``
    by its own writes.
    """
    in_place = fmt == "binary" and sink.seekable()
    with contextlib.nullcontext(sink) if in_place else tempfile.TemporaryFile() as fh:
        head = MAGIC + _HEADER.pack(*shape)
        _pwrite(fh.fileno(), head, 0)
        ids = fill(fh.fileno(), len(head))
        if not in_place:
            rows = EmbeddingFile(fh, getattr(sink, "name", "<output>"))
            rows.ids = ids
            return write_embeddings(rows, sink, fmt)
        tail = _id_block(ids)
        _pwrite(fh.fileno(), tail, len(head) + 4 * shape[0] * shape[1])
        return len(head) + 4 * shape[0] * shape[1] + len(tail)
