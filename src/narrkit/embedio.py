"""Embedding file formats.

Binary layout: magic ``EMB1``, then little-endian uint32 count and
dimension, then count*dim little-endian float32 values row-major, then an
optional block of newline-separated UTF-8 ids (one per vector). A JSONL
alternative with one ``{"id": ..., "values": [...]}`` object per line is
accepted interchangeably; readers sniff the magic bytes.

Memory: no set is read whole unless asked. ``open_embeddings`` yields an
``EmbeddingFile`` for every source, which checks an ``EMB1`` file's header,
payload size and id block without reading the payload; its ``blocks(lo, hi)``
reads rows lo..hi into a fresh float32 array of _BLOCK rows at a time, and
``take(index)`` the listed rows, by positional reads, so forked workers never
share a file offset. A stream that is not a file that can seek (a pipe, an
in-memory or a compressed stream) is first copied into an anonymous file; a
JSONL set is decoded line by line into one, as ``EMB1`` rows whose header is
written once the count is known, and its ids are kept apart, since an id may
hold a newline. ``read_embeddings`` reads every row into one array. The
writer sends the header, each block of rows and the id block (or one JSONL
line at a time) to the sink without joining them first; ``_write_rows``
writes a set whose rows a caller makes, each put in place by ``_pwrite``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import struct
import tempfile
from itertools import chain
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .embedcore import _BLOCK, EmbeddingSet
from .jsonl import TEXT, InputError, iter_json_objects, stream_name, want_str

__all__ = ["MAGIC", "EmbeddingFile", "open_embeddings", "read_embeddings", "write_embeddings"]

MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")

Source = Union[str, os.PathLike, IO[bytes]]


class EmbeddingFile:
    """An open ``EMB1`` set in a file that can seek, whose rows are read block by block.

    Opening checks the header, the payload size and the id block, which
    follows the payload, and reads no row; ``ids``, when given, are the set's
    ids in place of an id block. ``blocks(lo, hi)`` reads rows lo..hi, _BLOCK
    at a time, and checks that each block is finite; a file that has become
    shorter since it was opened reads as truncated. Errors are InputErrors
    naming the file.
    """

    dtype = np.dtype("<f4")

    def __init__(self, fh: IO[bytes], name: str, ids: list[str] | None = None):
        self.name, self._fh, self._fd, self.ids = name, fh, fh.fileno(), ids
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
        self.shape = (count, dim)
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
            try:
                n = os.preadv(self._fd, [view[got:]], start + got)
            except OSError as exc:  # name the set, as a failed write names its output
                raise OSError(exc.errno, exc.strerror, self.name) from exc
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
def _decode_jsonl(lines: Iterable[str], source: str, out: IO[bytes]) -> list[str] | None:
    """Decode JSONL records into ``out``, an empty file, as an EMB1 set without an
    id block, whose header is written once the count is known; return the ids,
    or None when no record carries one."""
    out.seek(len(MAGIC) + _HEADER.size)
    ids: list[str] = []
    dims: set[int] = set()
    count = 0
    for lineno, rec in iter_json_objects(lines, source):
        values = rec.get("values")
        numbers = isinstance(values, list) and _NUMBER_TYPES.issuperset(map(type, values))
        if not numbers or not values:
            raise InputError("field 'values' must be a non-empty array of numbers", lineno, source)
        try:  # stored as binary rows are, so that every set read is EMB1's dtype
            row = np.asarray(values, dtype=EmbeddingFile.dtype)
            finite = np.isfinite(row).all()
        except OverflowError:  # an integer literal beyond the float range
            finite = False
        if not finite:
            raise InputError("field 'values' exceeds the float32 range", lineno, source)
        out.write(row)  # a set of mixed dimensions is rejected once every line is checked
        dims.add(len(row))
        count += 1
        if rec.get("id") is not None:
            ids.append(want_str(rec, "id", lineno, source))
    if not count:
        raise InputError("no embedding records found", source=source)
    if len(dims) != 1:
        raise InputError(f"inconsistent embedding dimensions: {sorted(dims)}", source=source)
    if len(ids) not in (0, count):
        raise InputError("either every record carries an id or none does", source=source)
    out.seek(0)
    out.write(MAGIC + _HEADER.pack(count, dims.pop()))
    out.seek(0)
    return ids or None


@contextlib.contextmanager
def open_embeddings(source: Source) -> Iterator[EmbeddingFile]:
    """Open a binary or JSONL embedding set (auto-detected) for the kernels.

    Yields an EmbeddingFile, whose rows are read as the kernels walk its
    blocks. A stream that is not a file that can seek is first copied, from
    its position on, into an anonymous file, and a JSONL set decoded into one.
    A path is closed on exit; a caller's stream is left open.
    """
    with contextlib.ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            fh, name = stack.enter_context(open(source, "rb")), os.fspath(source)
        else:
            fh, name = source, stream_name(source)
        raw = getattr(fh, "raw", fh)
        if not (isinstance(raw, io.FileIO) and raw.seekable()):  # its fileno() may not hold its bytes
            fh, stream = stack.enter_context(tempfile.TemporaryFile()), fh
            shutil.copyfileobj(stream, fh)
            fh.seek(0)
        start = fh.tell()
        binary = fh.read(len(MAGIC)) == MAGIC
        fh.seek(start)
        if binary:
            yield EmbeddingFile(fh, name)
            return
        out = stack.enter_context(tempfile.TemporaryFile())
        # Split lines as a text-mode file does, so an id may hold U+2028.
        text = io.TextIOWrapper(fh, **TEXT)
        try:
            ids = _decode_jsonl(text, name, out)
        finally:
            text.detach()  # leaves a caller's stream open
        yield EmbeddingFile(out, name, ids)


def read_embeddings(source: Source) -> EmbeddingSet:
    """Load an embedding set from a binary or JSONL file (auto-detected), its
    vectors in one writable float32 array that no other copy shares."""
    with open_embeddings(source) as es:
        return es.read()


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


def _encode_binary(es: EmbeddingSet | EmbeddingFile) -> Iterable:
    tail = _id_block(es.ids)  # checked before anything is written
    head = MAGIC + _HEADER.pack(len(es), es.dim)
    return chain([head], (np.ascontiguousarray(b, dtype="<f4") for b in es.blocks()), [tail])


def _encode_jsonl(es: EmbeddingSet | EmbeddingFile) -> Iterable[bytes]:
    for first, block in zip(range(0, len(es), _BLOCK), es.blocks()):
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


def write_embeddings(es: EmbeddingSet | EmbeddingFile, sink: Source, fmt: str = "binary") -> int:
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


def _pwrite(fd: int, data, position: int, name: str) -> None:
    """Write all of ``data`` at ``position`` of file descriptor ``fd``; a failure,
    in this process or a forked one, raises OSError naming ``name``."""
    view = memoryview(data).cast("B")
    while view:
        try:
            written = os.pwrite(fd, view, position)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, name) from exc
        view, position = view[written:], position + written


def _write_rows(sink: IO[bytes], fmt: str, shape: tuple[int, int], fill: Callable) -> int:
    """Write a set of ``shape`` whose rows ``fill(write)`` makes, returning the
    set's ids; return the bytes written to ``sink``. fill hands ``write(block,
    k)`` EmbeddingFile.dtype rows, row 0 being the set's row k, in whichever
    process made them; write puts them in place by _pwrite, which names the sink.

    Binary output to a sink that can seek is written in place, all of it by
    positional writes at the sink's start: the header, fill's rows, then the id
    block. Any other output goes through an anonymous temporary file that fill
    writes as binary, which is then copied, or encoded as JSONL, into ``sink``
    by its own writes.
    """
    head, name = MAGIC + _HEADER.pack(*shape), stream_name(sink, "<output>")
    in_place = fmt == "binary" and sink.seekable()
    with contextlib.nullcontext(sink) if in_place else tempfile.TemporaryFile() as fh:
        _pwrite(fh.fileno(), head, 0, name)
        ids = fill(lambda block, k: _pwrite(fh.fileno(), block, len(head) + 4 * k * shape[1], name))
        if not in_place:
            return write_embeddings(EmbeddingFile(fh, name, ids), sink, fmt)
    tail, size = _id_block(ids), len(head) + 4 * shape[0] * shape[1]
    _pwrite(sink.fileno(), tail, size, name)
    return size + len(tail)
