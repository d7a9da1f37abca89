import dataclasses
import json

import pytest

from conftest import random_sequence
from narrkit.context import (
    ConditioningWindow,
    NarrativeSequence,
    StepRecord,
    build_windows,
    export_windows,
    read_step_sequences,
    tile_captions,
    window_count,
)


def windows_two_branch(seq, k):
    """Reference loop: full windows while 2k steps remain, then one partial tail."""
    steps, n = seq.steps, len(seq)
    spans, start = [], 0
    while start + 2 * k <= n:
        spans.append((steps[start : start + k], steps[start + k : start + 2 * k], False))
        start += k
    if start + k < n:
        spans.append((steps[start : start + k], steps[start + k : n], True))
    return [
        ConditioningWindow(
            window_index=i,
            k=k,
            ref_step_indices=tuple(s.index for s in refs),
            target_step_indices=tuple(s.index for s in targets),
            reference_frames=tuple(s.keyframe_id for s in refs),
            target_frames=tuple(s.keyframe_id for s in targets),
            reference_embeddings=tuple(s.embedding_id for s in refs),
            target_embeddings=tuple(s.embedding_id for s in targets),
            tiled_caption="\n".join(s.caption for s in refs + targets),
            partial=partial,
        )
        for i, (refs, targets, partial) in enumerate(spans)
    ]


def make_seq(n):
    steps = [
        StepRecord(t, f"act {t}", f"cap {t}", f"emb{t}", f"key{t}")
        for t in range(1, n + 1)
    ]
    return NarrativeSequence("s1", steps)


class TestSequenceInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no steps"):
            NarrativeSequence("s", [])

    def test_non_contiguous_rejected(self):
        steps = [StepRecord(1, "a", "c", "e", "k"), StepRecord(3, "a", "c", "e", "k")]
        with pytest.raises(ValueError, match="contiguous"):
            NarrativeSequence("s", steps)


class TestTileCaptions:
    def test_singleton(self):
        assert tile_captions(["a"]) == "a"

    def test_pair(self):
        assert tile_captions(["a", "b"]) == "a\nb"

    def test_split_recovers_inputs(self):
        captions = [f"caption number {i}" for i in range(4)]
        assert tile_captions(captions).split("\n") == captions

    def test_custom_separator(self):
        assert tile_captions(["a", "b"], separator=" | ") == "a | b"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tile_captions([])


class TestWindows:
    def test_eight_steps_k2(self):
        windows = build_windows(make_seq(8), 2)
        spans = [(w.ref_step_indices, w.target_step_indices) for w in windows]
        assert spans == [
            ((1, 2), (3, 4)),
            ((3, 4), (5, 6)),
            ((5, 6), (7, 8)),
        ]
        assert all(not w.partial for w in windows)

    def test_minimal_case(self):
        windows = build_windows(make_seq(2), 1)
        assert len(windows) == 1
        assert windows[0].ref_step_indices == (1,)
        assert windows[0].target_step_indices == (2,)

    def test_trailing_remainder_reuses_last_reference_block(self):
        windows = build_windows(make_seq(9), 2)
        assert len(windows) == 4
        tail = windows[-1]
        assert tail.partial
        assert tail.ref_step_indices == (7, 8)
        assert tail.target_step_indices == (9,)
        assert windows[-2].target_step_indices == tail.ref_step_indices

    def test_tiled_caption_covers_window_steps(self):
        windows = build_windows(make_seq(8), 2)
        w = windows[1]
        assert w.tiled_caption.split("\n") == ["cap 3", "cap 4", "cap 5", "cap 6"]

    def test_rolling_identity_random(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2 * k, 41))
            windows = build_windows(random_sequence(rng, n), k)
            for earlier, later in zip(windows, windows[1:]):
                assert earlier.target_step_indices == later.ref_step_indices
                assert earlier.target_frames == later.reference_frames
                assert earlier.target_embeddings == later.reference_embeddings

    def test_window_count_formula(self):
        for k in (1, 2, 3):
            for n in range(2 * k, 41):
                assert len(build_windows(make_seq(n), k)) == window_count(n, k)

    def test_every_late_step_is_a_target(self):
        for k in (1, 2, 3):
            for n in range(2 * k, 30):
                targets = set()
                for w in build_windows(make_seq(n), k):
                    targets.update(w.target_step_indices)
                assert targets >= set(range(2 * k, n + 1))

    def test_equals_two_branch_loop(self, rng):
        for k in (1, 2, 3):
            for n in range(2 * k, 31):
                seq = random_sequence(rng, n)
                got = [dataclasses.asdict(w) for w in build_windows(seq, k)]
                assert got == [dataclasses.asdict(w) for w in windows_two_branch(seq, k)], (k, n)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            build_windows(make_seq(3), 2)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="1..3"):
            build_windows(make_seq(10), k)

    def test_export_schema(self):
        seq = make_seq(5)
        windows = build_windows(seq, 2)
        lines = list(export_windows(seq, windows))
        assert len(lines) == len(windows)
        rec = json.loads(lines[-1])
        assert rec["sequence_id"] == "s1"
        assert rec["k"] == 2
        assert rec["partial"] is True
        assert rec["embedding_ids"] == ["emb3", "emb4", "emb5"]


class TestStepReader:
    def lines(self):
        rows = []
        for sid in ("b", "a"):
            for t in (2, 1):
                rows.append(
                    json.dumps(
                        {
                            "sequence_id": sid,
                            "index": t,
                            "action": f"act {t}",
                            "caption": f"cap {t}",
                            "embedding_id": f"e{t}",
                            "keyframe_id": f"k{t}",
                        }
                    )
                )
        return rows

    def test_groups_and_sorts(self):
        sequences = read_step_sequences(self.lines())
        assert list(sequences) == ["a", "b"]
        assert [s.index for s in sequences["a"].steps] == [1, 2]

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="keyframe_id"):
            read_step_sequences(['{"sequence_id": "a", "index": 1, "action": "x", "caption": "y", "embedding_id": "e"}'])

    def test_gap_rejected(self):
        bad = [
            json.dumps(
                {
                    "sequence_id": "a",
                    "index": t,
                    "action": "x",
                    "caption": "y",
                    "embedding_id": "e",
                    "keyframe_id": "k",
                }
            )
            for t in (1, 3)
        ]
        with pytest.raises(ValueError, match="contiguous"):
            read_step_sequences(bad)
