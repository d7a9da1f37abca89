import bz2
import gzip
import io
import lzma
import os

import numpy as np
import pytest

from narrkit import embedcore
from narrkit.embedcore import EmbeddingSet
from narrkit.embedio import MAGIC, EmbeddingFile, open_embeddings, read_embeddings, write_embeddings
from narrkit.jsonl import InputError


def make_set(rng, n=10, dim=6, with_ids=True):
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    ids = [f"emb-{i:03d}" for i in range(n)] if with_ids else None
    return EmbeddingSet(vectors, ids)


class TestBinary:
    def test_round_trip_bit_identity(self, rng, tmp_path):
        es = make_set(rng)
        path = tmp_path / "x.emb"
        write_embeddings(es, path)
        back = read_embeddings(path)
        assert back.vectors.tobytes() == es.vectors.tobytes()
        assert back.ids == es.ids

    def test_round_trip_without_ids(self, rng, tmp_path):
        es = make_set(rng, with_ids=False)
        path = tmp_path / "x.emb"
        write_embeddings(es, path)
        back = read_embeddings(path)
        assert back.ids is None
        assert np.array_equal(back.vectors, es.vectors)

    @pytest.mark.parametrize("from_path", [True, False], ids=["path", "stream"])
    def test_read_returns_writable_array(self, rng, tmp_path, from_path):
        es = make_set(rng)
        path = tmp_path / "x.emb"
        write_embeddings(es, path)
        source = path if from_path else io.BytesIO(path.read_bytes())
        back = read_embeddings(source)
        assert back.vectors.flags.writeable
        back.vectors[0, 0] = 1.5
        assert back.vectors[0, 0] == 1.5

    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    def test_reads_a_pipe(self, rng, fmt):
        es = make_set(rng, n=4, dim=3)
        buf = io.BytesIO()
        write_embeddings(es, buf, fmt=fmt)
        r, w = os.pipe()
        os.write(w, buf.getvalue())
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            back = read_embeddings(fh)
        assert np.array_equal(back.vectors, es.vectors)
        assert back.ids == es.ids

    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    @pytest.mark.parametrize("module", [gzip, bz2, lzma], ids=["gzip", "bz2", "lzma"])
    def test_reads_a_compressed_stream(self, rng, tmp_path, module, fmt):
        # the stream's fileno() is the compressed file's, which holds other bytes
        es = make_set(rng, n=4, dim=3)
        if fmt == "jsonl":
            es.ids[1] = "two\nlines"  # a JSONL id may hold a newline; a binary id block's may not
        path = tmp_path / "x.z"
        with module.open(path, "wb") as fh:
            write_embeddings(es, fh, fmt=fmt)
        with module.open(path, "rb") as fh:
            back = read_embeddings(fh)
        assert back.vectors.tobytes() == es.vectors.tobytes()
        assert back.ids == es.ids

    def test_byte_count(self, rng):
        es = make_set(rng, n=3, dim=2, with_ids=False)
        buf = io.BytesIO()
        n = write_embeddings(es, buf)
        assert n == len(buf.getvalue()) == len(MAGIC) + 8 + 3 * 2 * 4

    @pytest.mark.parametrize(
        "fmt,n,with_ids",
        [("binary", 5, True), ("binary", 5, False), ("jsonl", 5, True), ("binary", 0, False), ("jsonl", 0, False)],
        ids=["binary-ids", "binary", "jsonl", "binary-empty", "jsonl-empty"],
    )
    def test_returns_bytes_written(self, rng, tmp_path, fmt, n, with_ids):
        path = tmp_path / "x.out"
        written = write_embeddings(make_set(rng, n=n, dim=3, with_ids=with_ids), path, fmt=fmt)
        assert written == path.stat().st_size > 0

    def test_header_layout(self, rng):
        es = make_set(rng, n=5, dim=7, with_ids=False)
        buf = io.BytesIO()
        write_embeddings(es, buf)
        blob = buf.getvalue()
        assert blob[:4] == b"EMB1"
        assert int.from_bytes(blob[4:8], "little") == 5
        assert int.from_bytes(blob[8:12], "little") == 7

    def test_truncated_payload_rejected(self, rng):
        es = make_set(rng, with_ids=False)
        buf = io.BytesIO()
        write_embeddings(es, buf)
        with pytest.raises(ValueError, match="truncated"):
            read_embeddings(io.BytesIO(buf.getvalue()[:-5]))

    def test_id_count_mismatch_rejected(self, rng):
        es = make_set(rng, n=4)
        buf = io.BytesIO()
        write_embeddings(es, buf)
        with pytest.raises(ValueError, match="ids"):
            read_embeddings(io.BytesIO(buf.getvalue() + b"\nextra"))

    @pytest.mark.parametrize(
        "blob,reason",
        [
            (MAGIC + b"\x01", "embedding file truncated before header"),
            (MAGIC + (1).to_bytes(4, "little") * 2, "embedding file truncated: expected 4 data bytes, got 0"),
            (MAGIC + b"\xff" * 8 + bytes(8), f"embedding file truncated: expected {4 * (2**32 - 1) ** 2} data bytes, got 8"),
            (MAGIC + (1).to_bytes(4, "little") * 2 + np.float32(np.nan).tobytes(), "embeddings must be finite"),
            (MAGIC + (1).to_bytes(4, "little") * 2 + bytes(4) + b"\xff", "invalid UTF-8 in id 1"),
            (MAGIC + (2).to_bytes(4, "little") + (1).to_bytes(4, "little") + bytes(8) + b"a\n\xff",
             "invalid UTF-8 in id 2"),
            (MAGIC + (1).to_bytes(4, "little") + bytes(4), "embedding dimension must be >= 1"),
        ],
        ids=["header", "payload", "huge-header", "nan", "id-bytes", "second-id-bytes", "zero-dim"],
    )
    def test_errors_name_the_file(self, tmp_path, blob, reason):
        path = tmp_path / "bad.emb"
        path.write_bytes(blob)
        with pytest.raises(InputError) as info:
            read_embeddings(path)
        assert info.value.source == str(path)
        assert info.value.line is None
        assert str(info.value).startswith(reason)

    def test_newline_in_id_rejected(self):
        es = EmbeddingSet(np.ones((1, 2), dtype=np.float32), ids=["bad\nid"])
        with pytest.raises(ValueError, match="newline"):
            write_embeddings(es, io.BytesIO())

    def test_float64_set_written_as_single_precision(self, rng, tmp_path):
        es = EmbeddingSet(rng.normal(size=(4, 3)))
        path = tmp_path / "x.emb"
        write_embeddings(es, path)
        back = read_embeddings(path)
        assert back.vectors.dtype == np.float32
        assert np.array_equal(back.vectors, es.vectors.astype(np.float32))


class TestJsonl:
    def test_round_trip(self, rng, tmp_path):
        es = make_set(rng)
        path = tmp_path / "x.jsonl"
        write_embeddings(es, path, fmt="jsonl")
        back = read_embeddings(path)
        assert back.vectors.tobytes() == es.vectors.tobytes()
        assert back.ids == es.ids

    @pytest.mark.parametrize("n", [1, embedcore._BLOCK, embedcore._BLOCK + 1, 5 * embedcore._BLOCK + 1])
    def test_round_trip_across_growth(self, rng, n):
        # decoded row by row into a file, and read back in blocks of _BLOCK rows
        es = make_set(rng, n=n, dim=3)
        buf = io.BytesIO()
        write_embeddings(es, buf, fmt="jsonl")
        buf.seek(0)
        back = read_embeddings(buf)
        assert back.vectors.shape == (n, 3)
        assert back.vectors.tobytes() == es.vectors.tobytes()
        assert back.ids == es.ids

    def test_ragged_dims_after_growth_rejected(self):
        lines = ['{"values": [1.0, 2.0]}'] * (embedcore._BLOCK + 1) + ['{"values": [3.0]}', '{"values": []}']
        with pytest.raises(InputError, match=f"^line {embedcore._BLOCK + 3}: field 'values' must be a non-empty array"):
            read_embeddings(io.BytesIO("\n".join(lines).encode()))
        with pytest.raises(InputError, match=r"^inconsistent embedding dimensions: \[1, 2\]$"):
            read_embeddings(io.BytesIO("\n".join(lines[:-1]).encode()))

    def test_formats_interchangeable(self, rng, tmp_path):
        es = make_set(rng)
        binary_path = tmp_path / "x.emb"
        text_path = tmp_path / "x.jsonl"
        write_embeddings(es, binary_path)
        write_embeddings(es, text_path, fmt="jsonl")
        a = read_embeddings(binary_path)
        b = read_embeddings(text_path)
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.ids == b.ids

    def test_leaves_the_stream_open(self, rng):
        buf = io.BytesIO()
        write_embeddings(make_set(rng), buf, fmt="jsonl")
        buf.seek(0)
        read_embeddings(buf)
        assert not buf.closed

    def test_stream_named_by_its_descriptor_is_input(self):
        # os.fdopen names its file by the descriptor, an int
        r, w = os.pipe()
        os.write(w, b'{"values": [1.0]}\n[2.0]\n')
        os.close(w)
        with os.fdopen(r, "rb") as fh, pytest.raises(InputError) as err:
            read_embeddings(fh)
        assert (err.value.source, str(err.value)) == ("<input>", "line 2: record must be a JSON object")

    def test_reads_hand_written_records(self):
        text = '{"id": "a", "values": [1.0, 2.0]}\n{"id": "b", "values": [3.0, 4.0]}\n'
        es = read_embeddings(io.BytesIO(text.encode()))
        assert es.ids == ["a", "b"]
        assert np.array_equal(es.vectors, np.array([[1, 2], [3, 4]], dtype=np.float32))

    def test_id_may_hold_line_separator(self):
        # a raw U+2028 inside a JSON string is not a line break
        text = '{"id": "a\u2028b", "values": [1.0]}\n'
        es = read_embeddings(io.BytesIO(text.encode()))
        assert es.ids == ["a\u2028b"]

    def test_ids_optional(self):
        text = '{"values": [1.0]}\n{"values": [2.0]}\n'
        es = read_embeddings(io.BytesIO(text.encode()))
        assert es.ids is None

    def test_mixed_ids_rejected(self):
        text = '{"id": "a", "values": [1.0]}\n{"values": [2.0]}\n'
        with pytest.raises(ValueError, match="every record"):
            read_embeddings(io.BytesIO(text.encode()))

    def test_ragged_dims_rejected(self):
        text = '{"values": [1.0]}\n{"values": [2.0, 3.0]}\n'
        with pytest.raises(ValueError, match="dimensions"):
            read_embeddings(io.BytesIO(text.encode()))

    @pytest.mark.parametrize("value", [
        "1e39", "-3.5e38", "340282356779733661637539395458142568448",
        pytest.param("1" + "0" * 400, id="int-beyond-float64"),
    ])
    def test_beyond_float32_range_rejected_by_line(self, value):
        # the largest float32 is 3.4028234664e38; each value rounds past it
        text = f'{{"values": [1.0, 2.0]}}\n{{"values": [{value}, 1.0]}}\n'
        with pytest.raises(InputError, match="^line 2: field 'values' exceeds the float32 range$"):
            read_embeddings(io.BytesIO(text.encode()))

    def test_float32_max_accepted(self):
        text = '{"values": [3.4028234663852886e38, -3.4028234663852886e38]}\n'
        es = read_embeddings(io.BytesIO(text.encode()))
        assert es.vectors.tolist() == [[np.finfo(np.float32).max, np.finfo(np.float32).min]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no embedding records"):
            read_embeddings(io.BytesIO(b""))

    def test_bad_format_name(self, rng):
        with pytest.raises(ValueError, match="fmt"):
            write_embeddings(make_set(rng), io.BytesIO(), fmt="csv")


class TestEmbeddingSetValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingSet(np.array([[1.0, np.nan]]))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            EmbeddingSet(np.ones(3))

    def test_id_length_checked(self):
        with pytest.raises(ValueError, match="ids"):
            EmbeddingSet(np.ones((2, 2)), ids=["only-one"])

    @pytest.mark.parametrize("ids", [[1, 2], ["a", 2], [b"a", b"b"], "ab"], ids=["ints", "mixed", "bytes", "one-str"])
    def test_ids_must_be_non_empty_strings(self, ids):
        # a writer would fail on or write what no reader accepts
        with pytest.raises(ValueError, match="^embedding ids must be non-empty strings$"):
            EmbeddingSet(np.ones((2, 3)), ids=ids)

    def test_complex_rejected(self):
        # a cast to float would keep only the real part
        with pytest.raises(ValueError, match="^embeddings must be real numbers$"):
            EmbeddingSet(np.array([[1 + 2j, 3], [4, 5j]]))


def write_raw(path, rows, tail=b""):
    """An EMB1 file of float32 rows, NaN allowed (EmbeddingSet refuses one)."""
    path.write_bytes(MAGIC + np.array(rows.shape, "<u4").tobytes() + rows.astype("<f4").tobytes() + tail)


class TestOpen:
    BLOCK = embedcore._BLOCK

    def test_opening_reads_no_row(self, tmp_path):
        rows = np.ones((3, 2), dtype=np.float32)
        rows[1, 1] = np.nan
        path = tmp_path / "nan.emb"
        write_raw(path, rows, b"a\nb\nc")
        with open_embeddings(path) as fx:
            assert isinstance(fx, EmbeddingFile)
            assert (len(fx), fx.dim, fx.shape, fx.ids) == (3, 2, (3, 2), ["a", "b", "c"])
            with pytest.raises(InputError) as info:
                list(fx.blocks())
        assert (info.value.source, str(info.value)) == (str(path), "embeddings must be finite")

    def test_blocks_cut_at_lo_plus_whole_blocks(self, rng, tmp_path):
        rows = rng.normal(size=(2 * self.BLOCK + 3, 4)).astype(np.float32)
        path = tmp_path / "x.emb"
        write_raw(path, rows)
        with open_embeddings(path) as fx:
            assert np.array_equal(np.concatenate(list(fx.blocks())), rows)
            blocks = list(fx.blocks(5, 2 * self.BLOCK + 1))
            assert [len(b) for b in blocks] == [self.BLOCK, self.BLOCK - 4]
            assert np.array_equal(np.concatenate(blocks), rows[5 : 2 * self.BLOCK + 1])
            assert all(b.dtype == np.float32 and b.flags.c_contiguous for b in blocks)
            # positional reads: interleaved walks do not disturb each other
            first, second = fx.blocks(), fx.blocks(self.BLOCK)
            assert np.array_equal(next(second), rows[self.BLOCK : 2 * self.BLOCK])
            assert np.array_equal(next(first), rows[: self.BLOCK])

    def test_a_set_reads_as_its_file_does(self, rng, tmp_path):
        rows = rng.normal(size=(2 * self.BLOCK + 3, 4)).astype(np.float32)
        path = tmp_path / "x.emb"
        write_raw(path, rows)
        es = EmbeddingSet(rows)
        with open_embeddings(path) as fx:
            assert (es.shape, es.dtype) == (fx.shape, fx.dtype)
            for lo, hi in [(0, None), (5, 2 * self.BLOCK + 1), (self.BLOCK, self.BLOCK + 1)]:
                pairs = list(zip(es.blocks(lo, hi), fx.blocks(lo, hi), strict=True))
                assert pairs and all(np.array_equal(a, b) for a, b in pairs)
            index = [2 * self.BLOCK + 2, 0, 7, 7]
            assert np.array_equal(es.take(index), fx.take(index))
            assert np.array_equal(es.take(index), rows[index])

    def test_nan_in_the_last_block_found_when_read(self, rng, tmp_path):
        rows = rng.normal(size=(2 * self.BLOCK + 3, 4)).astype(np.float32)
        rows[-1, -1] = np.nan
        path = tmp_path / "late.emb"
        write_raw(path, rows)
        with open_embeddings(path) as fx:
            blocks = fx.blocks()
            assert np.array_equal(next(blocks), rows[: self.BLOCK])
            next(blocks)
            with pytest.raises(InputError, match="^embeddings must be finite$"):
                next(blocks)
        with pytest.raises(InputError, match="^embeddings must be finite$"):
            read_embeddings(path)

    def test_truncated_after_open(self, rng, tmp_path):
        rows = rng.normal(size=(self.BLOCK + 3, 4)).astype(np.float32)
        path = tmp_path / "shrinks.emb"
        write_raw(path, rows)
        with open_embeddings(path) as fx:
            os.truncate(path, 12 + 4 * 4 * (self.BLOCK + 1))  # the header and BLOCK + 1 rows
            payload = 4 * 4 * (self.BLOCK + 3)
            with pytest.raises(InputError) as info:
                list(fx.blocks())
            assert str(info.value) == f"embedding file truncated: expected {payload} data bytes, got {payload - 32}"
            assert info.value.source == str(path)

    def test_path_closed_on_exit(self, rng, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(make_set(rng), path)
        with open_embeddings(path) as fx:
            fd = fx._fd
        with pytest.raises(OSError):
            os.fstat(fd)
