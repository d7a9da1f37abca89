import io

import numpy as np
import pytest

from narrkit.embedcore import EmbeddingSet
from narrkit.embedio import MAGIC, read_embeddings, write_embeddings


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

    def test_byte_count(self, rng):
        es = make_set(rng, n=3, dim=2, with_ids=False)
        buf = io.BytesIO()
        n = write_embeddings(es, buf)
        assert n == len(buf.getvalue()) == len(MAGIC) + 8 + 3 * 2 * 4

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
